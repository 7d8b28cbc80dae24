(* Grouped genetic algorithm: parameters, operators, lazy fission. *)

module Gga = Kft_gga.Gga
module PM = Kft_perfmodel.Perfmodel

let test_params_roundtrip () =
  let p = { Gga.default_params with generations = 77; crossover_rate = 0.65; seed = 3 } in
  let p' = Gga.params_of_text (Gga.params_to_text p) in
  Alcotest.(check bool) "roundtrip" true (p = p')

let test_params_partial_file () =
  let p = Gga.params_of_text "generations = 9\n# a comment\npopulation = 5\n" in
  Alcotest.(check int) "generations" 9 p.generations;
  Alcotest.(check int) "population" 5 p.population;
  Alcotest.(check int) "default seed kept" Gga.default_params.seed p.seed

let test_params_malformed () =
  match Gga.params_of_text "what is this" with
  | (_ : Gga.params) -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

(* a value its key cannot take fails naming the key and the line *)
let test_params_bad_value () =
  List.iter
    (fun (text, expected) ->
      match Gga.params_of_text text with
      | (_ : Gga.params) -> Alcotest.fail ("accepted: " ^ text)
      | exception Failure msg -> Alcotest.(check string) text expected msg)
    [
      ("population = many", {|GGA parameter file, line 1: population = "many" is not a valid value|});
      ( "seed = 3\n\nfission_enabled = maybe",
        {|GGA parameter file, line 3: fission_enabled = "maybe" is not a valid value|} );
      ("crossover_rate = ", {|GGA parameter file, line 1: crossover_rate = "" is not a valid value|});
    ]

(* a synthetic problem: units u0..u(n-1); consecutive pairs share an
   array, so the ideal grouping is pairs {u0,u1} {u2,u3} ... *)
let unit_model name arrays =
  {
    PM.unit_name = name;
    flops = 10_000.0;
    bytes = 80_000.0;
    runtime_us = 5.0;
    arrays =
      List.map
        (fun a -> { PM.host = a; reads = 4; writes = 1; radius = (1, 1, 0); traffic_share = 1.0 /. float_of_int (List.length arrays) })
        arrays;
    block = (16, 8, 1);
    domain = (32, 16, 1);
    nest_depth = 1;
    fusable = true;
  }

(* a problem over named models. Unit ids follow list order (the units,
   then every fission part), mapped through [renumber]; the callbacks
   see the members' models, so a test states them by name *)
let named_problem ?(renumber = Fun.id) ?(fission_parts = []) ?(part_arrays = [])
    ?(feasible = fun _ -> true) ?(solution_feasible = fun ~groups:_ ~fissioned:_ -> true)
    ?(shared_ok = fun _ -> true) units =
  let models = units @ List.concat_map snd fission_parts in
  let ids = List.mapi (fun i (m : PM.unit_model) -> (m.unit_name, renumber i)) models in
  let id name = List.assoc name ids in
  let by_id = Hashtbl.create 16 in
  List.iter2 (fun (_, u) m -> Hashtbl.replace by_id u m) ids models;
  let model = Hashtbl.find by_id in
  let named = List.map model in
  let name_id (m : PM.unit_model) = id m.unit_name in
  {
    Gga.model;
    units = List.map name_id units;
    fission_parts = List.map (fun (o, ps) -> (id o, List.map name_id ps)) fission_parts;
    part_arrays = List.map (fun (p, arrs) -> (id p, arrs)) part_arrays;
    feasible = (fun g -> feasible (named g));
    solution_feasible =
      (fun ~groups ~fissioned ->
        solution_feasible ~groups:(List.map named groups) ~fissioned:(named fissioned));
    eval_group = (fun g -> PM.eval_group Util.device (named g));
    shared_ok = (fun g -> shared_ok (named g));
  }

(* the id a problem gives a unit or part name *)
let id_of (p : Gga.problem) name =
  List.find (fun u -> (p.model u).unit_name = name) (p.units @ List.concat_map snd p.fission_parts)

let pair_units n =
  List.init n (fun i ->
      unit_model (Printf.sprintf "u%d" i) [ Printf.sprintf "S%d" (i / 2); Printf.sprintf "O%d" i ])

let pair_problem ?renumber n = named_problem ?renumber (pair_units n)

let small = { Gga.default_params with generations = 60; population = 24 }

(* parameters the search's loops cannot run with are refused up front;
   [tournament = 0] once looped forever *)
let test_run_rejects_bad_params () =
  List.iter
    (fun (field, params) ->
      match Gga.run params (pair_problem 4) with
      | (_ : Gga.result) -> Alcotest.fail ("accepted bad " ^ field)
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (msg ^ " names " ^ field) true (Util.contains msg field))
    [
      ("population", { small with population = 0 });
      ("population", { small with population = -2 });
      ("generations", { small with generations = -3 });
      ("tournament", Gga.params_of_text "tournament = 0");
      ("elitism", { small with elitism = -1 });
    ];
  let r = Gga.run { small with population = 1; generations = 0; elitism = 0 } (pair_problem 4) in
  Alcotest.(check int) "the smallest search scores its one genome" 1 r.evaluations

let test_deterministic () =
  let p = pair_problem 6 in
  let r1 = Gga.run small p and r2 = Gga.run small p in
  Alcotest.(check bool) "same best" true (r1.best.groups = r2.best.groups);
  Util.check_float "same fitness" r1.best.fitness r2.best.fitness;
  let r3 = Gga.run { small with seed = small.seed + 1 } p in
  ignore r3 (* different seed may differ; just must not crash *)

let test_partition_invariant () =
  let p = pair_problem 8 in
  let r = Gga.run small p in
  let all = List.concat r.best.groups |> List.sort compare in
  let expected = List.init 8 (fun i -> Printf.sprintf "u%d" i) |> List.sort compare in
  Alcotest.(check (list string)) "groups partition the units" expected all

let test_finds_sharing_pairs () =
  let p = pair_problem 6 in
  let r = Gga.run { small with generations = 120 } p in
  (* the sharing pairs must be grouped together *)
  let together a b =
    List.exists (fun g -> List.mem a g && List.mem b g) r.best.groups
  in
  Alcotest.(check bool) "u0+u1" true (together "u0" "u1");
  Alcotest.(check bool) "u2+u3" true (together "u2" "u3");
  Alcotest.(check bool) "u4+u5" true (together "u4" "u5")

let test_improves_over_singletons () =
  let p = pair_problem 6 in
  let r = Gga.run small p in
  let singletons = PM.objective Util.device (List.map (fun u -> [ p.model u ]) p.units) in
  Alcotest.(check bool) "beats singletons" true (r.best.raw_objective > singletons)

let test_respects_feasibility () =
  let p = named_problem ~feasible:(fun g -> List.length g <= 1) (pair_units 4) in
  let r = Gga.run small p in
  Alcotest.(check int) "no violations" 0 r.best.violations;
  Alcotest.(check bool) "all singletons" true (List.for_all (fun g -> List.length g = 1) r.best.groups)

let test_joint_feasibility_penalized () =
  (* forbid any solution with more than one multi-group *)
  let p =
    named_problem
      ~solution_feasible:(fun ~groups ~fissioned:_ ->
        List.length (List.filter (fun g -> List.length g > 1) groups) <= 1)
      (pair_units 4)
  in
  let r = Gga.run { small with generations = 120 } p in
  Alcotest.(check int) "no violations in best" 0 r.best.violations;
  Alcotest.(check bool) "at most one fused group" true
    (List.length (List.filter (fun g -> List.length g > 1) r.best.groups) <= 1)

(* one big unit whose staging violates capacity; its parts fit and pair
   with a small consumer. Any group of two or more holding "big" whole
   violates capacity. *)
let fission_problem ?renumber () =
  let big = unit_model "big" [ "X"; "Y"; "Z"; "W" ] in
  let partner = unit_model "p" [ "X" ] in
  let parts = [ unit_model "big__f1" [ "X" ]; unit_model "big__f2" [ "Y"; "Z"; "W" ] ] in
  named_problem ?renumber
    ~fission_parts:[ ("big", parts) ]
    ~part_arrays:[ ("big__f1", [ "X" ]); ("big__f2", [ "Y"; "Z"; "W" ]) ]
    ~shared_ok:(fun models ->
      not
        (List.exists (fun (m : PM.unit_model) -> m.unit_name = "big") models
        && List.length models > 1))
    [ big; partner ]

let test_lazy_fission_triggers () =
  let r = Gga.run { small with generations = 120 } (fission_problem ()) in
  Alcotest.(check bool) "fission happened during search" true (r.fission_events > 0);
  Alcotest.(check bool) "avg fissions positive" true (r.avg_fissions_per_generation > 0.0)

let test_fission_disabled () =
  let problem =
    named_problem
      ~fission_parts:[ ("big", [ unit_model "big__f1" [ "X" ] ]) ]
      ~shared_ok:(fun _ -> false)
      [ unit_model "big" [ "X"; "Y" ] ]
  in
  let r = Gga.run { small with fission_enabled = false } problem in
  Alcotest.(check int) "no fission events" 0 r.fission_events

(* units a, b and c share one array and only a group of two or more led
   by a overflows, so the greedy split of [a; b; c] grows from a through
   every other member and leaves nothing behind: no empty group may come
   out of it *)
let test_greedy_split_absorbs_all () =
  let problem =
    named_problem
      ~shared_ok:(function (m : PM.unit_model) :: _ :: _ -> m.unit_name <> "a" | _ -> true)
      (List.map (fun n -> unit_model n [ "S" ]) [ "a"; "b"; "c" ])
  in
  let sp = Gga.Internal.space problem in
  let id = id_of problem in
  let genome = { Gga.Internal.g_groups = [ [ id "a"; id "b"; id "c" ] ]; g_fissioned = [] } in
  let _, repaired, _ = Gga.Internal.evaluate small sp (Gga.Internal.verdicts ()) genome in
  Alcotest.(check (list (list int))) "one group, all three units"
    [ [ id "a"; id "b"; id "c" ] ] repaired.g_groups;
  let r = Gga.run small problem in
  Alcotest.(check (list string)) "the search partitions the units" [ "a"; "b"; "c" ]
    (List.sort compare (List.concat r.best.groups))

let test_history_monotone () =
  let p = pair_problem 8 in
  let r = Gga.run small p in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "best fitness non-decreasing" true (mono r.history);
  Alcotest.(check bool) "converged_at within budget" true
    (r.converged_at >= 0 && r.converged_at <= small.generations)

(* ------------------------------------------------------------------ *)
(* Property suite: the grouping operators always produce valid          *)
(* partitions, repair is idempotent, and the search engine is           *)
(* deterministic at any worker count with the memo cache on or off.     *)
(* ------------------------------------------------------------------ *)

module I = Gga.Internal
module Engine = Kft_engine.Engine

(* is [genome] a valid partition of [expected]? no duplicates, no drops,
   no foreign ids; fissioned parts consistent with the fissioned set *)
let check_partition ~expected (genome : I.genome) =
  let all = List.concat genome.g_groups in
  List.sort compare all = List.sort compare expected
  && List.length all = List.length (List.sort_uniq compare all)
  && List.for_all (fun g -> g <> []) genome.g_groups

(* generator: a partition of the ids 0..n-1 built by bucket assignment
   (the units of [pair_problem n] are exactly those ids) *)
let partition_gen n =
  let open QCheck.Gen in
  let* buckets = list_repeat n (int_range 0 (max 0 (n - 1))) in
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun u b -> Hashtbl.replace tbl b (u :: Option.value ~default:[] (Hashtbl.find_opt tbl b)))
    buckets;
  return
    {
      I.g_groups = Hashtbl.fold (fun _ g acc -> List.rev g :: acc) tbl [] |> List.sort compare;
      g_fissioned = [];
    }

let ids l = String.concat "," (List.map string_of_int l)

let genome_print (g : I.genome) =
  Printf.sprintf "groups=[%s] fissioned=[%s]"
    (String.concat " | " (List.map ids g.g_groups))
    (ids g.g_fissioned)

let prop_random_partition_valid =
  QCheck.Test.make ~name:"random_partition yields a valid partition" ~count:200
    QCheck.(pair (int_range 1 12) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let units = (pair_problem n).units in
      let groups = I.random_partition rng units in
      check_partition ~expected:units { I.g_groups = groups; g_fissioned = [] })

let prop_crossover_valid =
  QCheck.Test.make ~name:"crossover of two partitions is a valid partition" ~count:300
    QCheck.(
      make
        ~print:(fun (a, b, _) -> genome_print a ^ " x " ^ genome_print b)
        Gen.(
          let* n = int_range 2 10 in
          let* a = partition_gen n in
          let* b = partition_gen n in
          let* seed = int in
          return (a, b, (n, seed))))
    (fun (a, b, (n, seed)) ->
      let rng = Random.State.make [| seed |] in
      let child = I.crossover rng a b in
      check_partition ~expected:(List.init n Fun.id) child)

let prop_mutate_valid =
  QCheck.Test.make ~name:"mutation preserves the partition" ~count:300
    QCheck.(
      make
        ~print:(fun (g, _) -> genome_print g)
        Gen.(
          let* n = int_range 2 10 in
          let* g = partition_gen n in
          let* seed = int in
          return (g, (n, seed))))
    (fun (g, (n, seed)) ->
      let rng = Random.State.make [| seed |] in
      let child = I.mutate rng (I.space (pair_problem n)) g in
      check_partition ~expected:(List.init n Fun.id) child)

(* a problem for repair tests: u0 and u3 of six units are fissionable *)
let repair_problem =
  let part name = unit_model name [ "P" ] in
  named_problem
    ~fission_parts:
      [
        ("u0", [ part "u0__f1"; part "u0__f2" ]);
        ("u3", [ part "u3__f1"; part "u3__f2"; part "u3__f3" ]);
      ]
    (pair_units 6)

let repair_space = I.space repair_problem
let repair_parts = repair_problem.fission_parts

(* effective unit set of a genome: fissioned originals replaced by parts *)
let effective (genome : I.genome) =
  List.concat_map
    (fun u ->
      if List.mem u genome.g_fissioned && List.mem_assoc u repair_parts then
        List.assoc u repair_parts
      else [ u ])
    repair_problem.units

(* generator: a deliberately broken genome — duplicated units, dropped
   units, originals and parts mixed regardless of the fissioned set, and
   units that cannot be fissioned in the fissioned set *)
let broken_genome_gen =
  let open QCheck.Gen in
  let n = List.length repair_problem.units + List.length (List.concat_map snd repair_parts) in
  let* n_groups = int_range 1 6 in
  let* groups = list_repeat n_groups (list_size (int_range 1 5) (int_range 0 (n - 1))) in
  let* fissioned =
    list_size (int_range 0 3) (oneofl (List.map (id_of repair_problem) [ "u0"; "u3"; "u0__f1"; "u5" ]))
  in
  return { I.g_groups = groups; g_fissioned = fissioned }

let prop_repair_fixes_and_idempotent =
  QCheck.Test.make ~name:"repair_partition yields a valid partition and is idempotent"
    ~count:500
    (QCheck.make ~print:genome_print broken_genome_gen)
    (fun g ->
      let repaired = I.repair_partition repair_space g in
      check_partition ~expected:(effective repaired) repaired
      && I.repair_partition repair_space repaired = repaired)

let prop_normalize_canonical =
  QCheck.Test.make ~name:"normalize is idempotent and order-insensitive" ~count:300
    QCheck.(
      make
        ~print:(fun (g, _) -> genome_print g)
        Gen.(
          let* n = int_range 2 8 in
          let* g = partition_gen n in
          let* seed = int in
          return (g, seed)))
    (fun (g, seed) ->
      let rng = Random.State.make [| seed |] in
      let shuffled =
        {
          I.g_groups =
            (let arr = Array.of_list (List.map (fun grp -> List.rev grp) g.g_groups) in
             for i = Array.length arr - 1 downto 1 do
               let j = Random.State.int rng (i + 1) in
               let tmp = arr.(i) in
               arr.(i) <- arr.(j);
               arr.(j) <- tmp
             done;
             Array.to_list arr);
          g_fissioned = List.rev g.g_fissioned;
        }
      in
      let sp = I.space (pair_problem 8) in
      I.normalize sp g = I.normalize sp shuffled && I.normalize sp (I.normalize sp g) = I.normalize sp g)

let prop_evaluate_repair_fixpoint =
  QCheck.Test.make ~name:"evaluate's repaired genome is a fixpoint" ~count:200
    QCheck.(
      make
        ~print:(fun (which, g) -> Printf.sprintf "%s: %s" which (genome_print g))
        Gen.(
          let* pick = oneofl [ `Pairs; `Fission ] in
          match pick with
          | `Pairs ->
              let* n = int_range 2 8 in
              let* g = partition_gen n in
              return ("pairs", g)
          | `Fission ->
              let* both = bool in
              (* ids in list order: big = 0, p = 1 *)
              let groups = if both then [ [ 0; 1 ] ] else [ [ 0 ]; [ 1 ] ] in
              return ("fission", { I.g_groups = groups; g_fissioned = [] })))
    (fun (which, g) ->
      let problem = if which = "pairs" then pair_problem 8 else fission_problem () in
      let sp = I.space problem in
      let g = if which = "pairs" then I.repair_partition sp g else g in
      let table = I.verdicts () in
      let s1, g1, _ = I.evaluate small sp table g in
      let s2, g2, _ = I.evaluate small sp table g1 in
      g2 = g1 && s2.I.fitness = s1.I.fitness)

(* pairs whose staging fits only in groups of two, or of three when the
   first member is u4 or later: the greedy split then depends on member
   order, which the verdict table must respect *)
let tight_problem ?renumber n =
  named_problem ?renumber
    ~shared_ok:(fun models ->
      match models with
      | [] -> true
      | first :: _ -> List.length models <= if first.unit_name >= "u4" then 3 else 2)
    (pair_units n)

let bits = Int64.bits_of_float

let same_solution (a : Gga.solution) (b : Gga.solution) =
  a.groups = b.groups && a.fissioned = b.fissioned && a.violations = b.violations
  && Int64.equal (bits a.fitness) (bits b.fitness)
  && Int64.equal (bits a.raw_objective) (bits b.raw_objective)

(* the verdict table only saves work: scoring each genome from a fresh
   table gives the solutions one table per run gives, bit for bit, over
   random genomes and offspring bred from their repaired forms *)
let prop_verdict_table_invisible =
  QCheck.Test.make ~name:"a fresh verdict table per genome scores like one table per run"
    ~count:40
    QCheck.(pair (int_range 0 100_000) (oneofl [ `Pairs; `Tight; `Fission ]))
    (fun (seed, which) ->
      let problem =
        match which with
        | `Pairs -> pair_problem 8
        | `Tight -> tight_problem 8
        | `Fission -> fission_problem ()
      in
      let sp = I.space problem in
      let rng = Random.State.make [| seed |] in
      let canonical g = I.normalize sp (I.repair_partition sp g) in
      let shared = I.verdicts () in
      let score g =
        let g = canonical g in
        let s, g', f = I.evaluate small sp shared g in
        let s1, g1, f1 = I.evaluate small sp (I.verdicts ()) g in
        (same_solution (I.solution sp s g') (I.solution sp s1 g1) && g' = g1 && f = f1, g')
      in
      let parents =
        List.init 12 (fun _ -> { I.g_groups = I.random_partition rng problem.units; g_fissioned = [] })
      in
      let ok1, repaired = List.split (List.map score parents) in
      let pool = Array.of_list repaired in
      let pick () = pool.(Random.State.int rng (Array.length pool)) in
      let children =
        List.init 24 (fun _ -> I.mutate rng sp (I.crossover rng (pick ()) (pick ())))
      in
      List.for_all Fun.id ok1 && List.for_all (fun g -> fst (score g)) children)

(* determinism across worker counts and memo settings: the documented
   contract of [Gga.run ?engine] *)
let run_with ~jobs ~memo params problem =
  Engine.with_engine ~jobs ~memo (fun engine -> Gga.run ~engine params problem)

let same_result (a : Gga.result) (b : Gga.result) =
  a.best = b.best && a.history = b.history && a.evaluations = b.evaluations
  && a.fission_events = b.fission_events
  && a.converged_at = b.converged_at

let prop_deterministic_across_engines =
  QCheck.Test.make ~name:"run is bit-identical across jobs {1,2,4} and memo on/off" ~count:6
    QCheck.(pair (int_range 0 1000) (oneofl [ `Pairs; `Fission ]))
    (fun (seed, which) ->
      let problem = match which with `Pairs -> pair_problem 6 | `Fission -> fission_problem () in
      let params = { small with generations = 12; population = 12; seed } in
      let reference = run_with ~jobs:1 ~memo:false params problem in
      List.for_all
        (fun (jobs, memo) -> same_result reference (run_with ~jobs ~memo params problem))
        [ (1, true); (2, true); (4, true); (4, false) ])

(* two fissionable units, listed against their name order, so the
   fissioned set's order depends on the ranks *)
let two_fission_problem ?renumber () =
  let m = unit_model in
  named_problem ?renumber
    ~fission_parts:
      [
        ("bigb", [ m "bigb__f1" [ "X" ]; m "bigb__f2" [ "V"; "T" ] ]);
        ("biga", [ m "biga__f1" [ "X" ]; m "biga__f2" [ "Y"; "Z" ]; m "biga__f3" [ "W" ] ]);
      ]
    ~part_arrays:
      [
        ("biga__f1", [ "X" ]); ("biga__f2", [ "Y"; "Z" ]); ("biga__f3", [ "W" ]);
        ("bigb__f1", [ "X" ]); ("bigb__f2", [ "V"; "T" ]);
      ]
    ~shared_ok:(fun models ->
      not
        (List.exists (fun (u : PM.unit_model) -> u.unit_name = "biga" || u.unit_name = "bigb") models
        && List.length models > 1))
    [ m "bigb" [ "X"; "V"; "T" ]; m "p" [ "X" ]; m "biga" [ "X"; "Y"; "Z"; "W" ]; m "q" [ "Y" ] ]

(* the search compares ranks, never raw ids: handing it the same problem
   under another numbering of its units (names unchanged, ids spread
   out with gaps) gives the same outcome and the same internal counts *)
let prop_renumbering_invariant =
  QCheck.Test.make ~name:"run is invariant under a renumbering of the unit ids" ~count:24
    QCheck.(triple (int_range 0 1000) (oneofl [ `Pairs; `Tight; `Fission ]) int)
    (fun (seed, which, perm_seed) ->
      let build ?renumber () =
        match which with
        | `Pairs -> pair_problem ?renumber 12
        | `Tight -> tight_problem ?renumber 12
        | `Fission -> two_fission_problem ?renumber ()
      in
      let n =
        let p = build () in
        List.length p.units + List.length (List.concat_map snd p.fission_parts)
      in
      let perm = Array.init n Fun.id in
      let rng = Random.State.make [| perm_seed |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let params = { small with generations = 15; population = 12; seed } in
      let a = Gga.run params (build ())
      and b = Gga.run params (build ~renumber:(fun i -> (3 * perm.(i)) + 2) ()) in
      a.best = b.best && a.history = b.history && a.evaluations = b.evaluations
      && a.engine_stats.es_computed = b.engine_stats.es_computed
      && a.engine_stats.es_verdicts = b.engine_stats.es_verdicts)

let property_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_partition_valid;
      prop_crossover_valid;
      prop_mutate_valid;
      prop_repair_fixes_and_idempotent;
      prop_normalize_canonical;
      prop_evaluate_repair_fixpoint;
      prop_verdict_table_invisible;
      prop_deterministic_across_engines;
      prop_renumbering_invariant;
    ]

let suite =
  [
    Alcotest.test_case "parameter file roundtrip" `Quick test_params_roundtrip;
    Alcotest.test_case "partial parameter file" `Quick test_params_partial_file;
    Alcotest.test_case "malformed parameter file" `Quick test_params_malformed;
    Alcotest.test_case "parameter value naming key and line" `Quick test_params_bad_value;
    Alcotest.test_case "run rejects bad parameters" `Quick test_run_rejects_bad_params;
    Alcotest.test_case "deterministic for a seed" `Quick test_deterministic;
    Alcotest.test_case "groups partition units" `Quick test_partition_invariant;
    Alcotest.test_case "finds sharing pairs" `Quick test_finds_sharing_pairs;
    Alcotest.test_case "improves over singletons" `Quick test_improves_over_singletons;
    Alcotest.test_case "respects per-group feasibility" `Quick test_respects_feasibility;
    Alcotest.test_case "respects joint feasibility" `Quick test_joint_feasibility_penalized;
    Alcotest.test_case "lazy fission triggers" `Quick test_lazy_fission_triggers;
    Alcotest.test_case "fission can be disabled" `Quick test_fission_disabled;
    Alcotest.test_case "history monotone" `Quick test_history_monotone;
    Alcotest.test_case "greedy split absorbing every member" `Quick test_greedy_split_absorbs_all;
  ]
