type params = {
  population : int;
  generations : int;
  crossover_rate : float;
  mutation_rate : float;
  tournament : int;
  elitism : int;
  seed : int;
  c_violation : float;
  c_sm_stuck : float;
  fission_enabled : bool;
}

let default_params =
  {
    population = 100;
    generations = 500;
    crossover_rate = 0.8;
    mutation_rate = 0.25;
    tournament = 3;
    elitism = 2;
    seed = 7;
    c_violation = 50.0;
    c_sm_stuck = 20.0;
    fission_enabled = true;
  }

let params_to_text p =
  String.concat "\n"
    [
      Printf.sprintf "population = %d" p.population;
      Printf.sprintf "generations = %d" p.generations;
      Printf.sprintf "crossover_rate = %g" p.crossover_rate;
      Printf.sprintf "mutation_rate = %g" p.mutation_rate;
      Printf.sprintf "tournament = %d" p.tournament;
      Printf.sprintf "elitism = %d" p.elitism;
      Printf.sprintf "seed = %d" p.seed;
      Printf.sprintf "c_violation = %g" p.c_violation;
      Printf.sprintf "c_sm_stuck = %g" p.c_sm_stuck;
      Printf.sprintf "fission_enabled = %b" p.fission_enabled;
      "";
    ]

let params_of_text text =
  let fail line fmt =
    Printf.ksprintf (fun s -> failwith (Printf.sprintf "GGA parameter file, line %d: %s" line s)) fmt
  in
  let kv = Hashtbl.create 16 in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         let line = String.trim line in
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line '=' with
           | Some j ->
               Hashtbl.replace kv
                 (String.trim (String.sub line 0 j))
                 (i + 1, String.trim (String.sub line (j + 1) (String.length line - j - 1)))
           | None -> fail (i + 1) "malformed line: %s" line);
  let get name default conv =
    match Hashtbl.find_opt kv name with
    | None -> default
    | Some (line, v) -> (
        match conv v with Some x -> x | None -> fail line "%s = %S is not a valid value" name v)
  in
  {
    population = get "population" default_params.population int_of_string_opt;
    generations = get "generations" default_params.generations int_of_string_opt;
    crossover_rate = get "crossover_rate" default_params.crossover_rate float_of_string_opt;
    mutation_rate = get "mutation_rate" default_params.mutation_rate float_of_string_opt;
    tournament = get "tournament" default_params.tournament int_of_string_opt;
    elitism = get "elitism" default_params.elitism int_of_string_opt;
    seed = get "seed" default_params.seed int_of_string_opt;
    c_violation = get "c_violation" default_params.c_violation float_of_string_opt;
    c_sm_stuck = get "c_sm_stuck" default_params.c_sm_stuck float_of_string_opt;
    fission_enabled = get "fission_enabled" default_params.fission_enabled bool_of_string_opt;
  }

(* the search's loops assume these; [tournament = 0] would never pick *)
let check_params p =
  let need ok field what =
    if not ok then invalid_arg (Printf.sprintf "Gga.run: %s must be %s" field what)
  in
  need (p.population >= 1) "population" "at least 1";
  need (p.generations >= 0) "generations" "non-negative";
  need (p.tournament >= 1) "tournament" "at least 1";
  need (p.elitism >= 0) "elitism" "non-negative"

type problem = {
  model : int -> Kft_perfmodel.Perfmodel.unit_model;
  units : int list;
  fission_parts : (int * int list) list;
  part_arrays : (int * string list) list;
  feasible : int list -> bool;
  solution_feasible : groups:int list list -> fissioned:int list -> bool;
      (** joint schedulability: contracting every group at once must
          leave the order-of-execution graph acyclic *)
  eval_group : int list -> Kft_perfmodel.Perfmodel.group_eval;
  shared_ok : int list -> bool;
}

type solution = {
  groups : string list list;
  fissioned : string list;
  fitness : float;
  raw_objective : float;
  violations : int;
}

type engine_stats = {
  es_jobs : int;
  es_memo : bool;
  es_requested : int;
  es_computed : int;
  es_hit_rate : float;
  es_verdicts : int;
  es_search_wall_s : float;
  es_gen_wall_s : float;
}

type result = {
  best : solution;
  history : (int * float) list;
  fission_events : int;
  avg_fissions_per_generation : float;
  converged_at : int;
  evaluations : int;
  engine_stats : engine_stats;
}

module Engine = Kft_engine.Engine
module Trace = Kft_trace.Trace
module Perfmodel = Kft_perfmodel.Perfmodel

(* the generic hash stops after ten values, too few to tell large
   groups apart *)
let hash_ints = List.fold_left (fun h u -> (h * 31) + u)

module Groups = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash g = hash_ints 17 g land max_int
end)

module Internal = struct
  (* The problem's unit ids are the search's own. Canonical forms and
     every tie-break order ids by [rank], the position of their names in
     [compare] order, so they are those of the named genome whatever the
     caller's numbering. Host arrays get ids in first-seen order (only
     their equality matters). Names appear only in [solution]. *)
  type space = {
    problem : problem;
    rank : int array;
    fissionable : int list;  (* the units with parts, by rank *)
    parts : int list option array;  (* a fissionable unit's parts *)
    arrays : int list array;  (* the host arrays a unit's model touches *)
    part_arrays : int list array;  (* the arrays that keep a part in its group *)
    n_arrays : int;
  }

  let space (problem : problem) =
    let ids = problem.units @ List.concat_map snd problem.fission_parts in
    let n = 1 + List.fold_left max (-1) ids in
    let ranked = List.sort_uniq compare (List.map (fun u -> ((problem.model u).unit_name, u)) ids) in
    let rank = Array.make n 0 in
    List.iteri (fun r (_, u) -> rank.(u) <- r) ranked;
    let array_ids = Hashtbl.create 64 in
    let array_id a =
      if not (Hashtbl.mem array_ids a) then Hashtbl.replace array_ids a (Hashtbl.length array_ids);
      Hashtbl.find array_ids a
    in
    let arrays = Array.make n [] in
    List.iter
      (fun (_, u) -> arrays.(u) <- List.map (fun a -> array_id a.Perfmodel.host) (problem.model u).arrays)
      ranked;
    let parts = Array.make n None and part_arrays = Array.copy arrays in
    (* the first binding wins, as with [List.assoc] *)
    List.iter (fun (u, ps) -> if parts.(u) = None then parts.(u) <- Some ps) problem.fission_parts;
    List.iter (fun (p, arrs) -> part_arrays.(p) <- List.map array_id arrs) (List.rev problem.part_arrays);
    let fissionable = List.filter_map (fun (_, u) -> Option.map (fun _ -> u) parts.(u)) ranked in
    { problem; rank; fissionable; parts; arrays; part_arrays; n_arrays = Hashtbl.length array_ids }

  let by_rank sp a b = Int.compare sp.rank.(a) sp.rank.(b)

  (* genotype: groups of unit ids + set of fissioned kernels *)
  type genome = { g_groups : int list list; g_fissioned : int list }

  let rec mem_int (x : int) = function [] -> false | y :: l -> x = y || mem_int x l
  let intersects a b = List.exists (fun x -> mem_int x b) a

  (* canonical form, by rank: members sorted within groups, groups
     sorted, fissioned set sorted and deduplicated. Evaluation happens on
     the canonical form only, which makes the fitness a pure function of
     the canonical genome -- the property the memo cache relies on (cache
     on or off produces bit-identical results). *)
  let normalize sp genome =
    let c = by_rank sp in
    {
      g_groups = List.sort (List.compare c) (List.map (List.sort c) genome.g_groups);
      g_fissioned = List.sort_uniq c genome.g_fissioned;
    }

  (* structural repair: make [genome] a valid partition of its *effective*
     unit set -- every original unit, with each fissioned original replaced
     by its pre-profiled parts. Crossover of parents whose fission states
     differ can otherwise leave an original and its parts alive at once, or
     drop units entirely. Keeps the first occurrence of each unit (group
     and member order preserved), expands stale originals in place, drops
     ids outside the effective set, and appends still-missing units as
     singletons. *)
  let repair_partition sp genome =
    let n = Array.length sp.rank in
    let fissioned = Array.make n false in
    List.iter (fun u -> if Option.is_some sp.parts.(u) then fissioned.(u) <- true) genome.g_fissioned;
    let any = List.exists (fun u -> fissioned.(u)) genome.g_fissioned in
    let expand g =
      if not any then g
      else List.concat_map (fun u -> match sp.parts.(u) with Some ps when fissioned.(u) -> ps | _ -> [ u ]) g
    in
    let expected = expand sp.problem.units in
    let in_expected = Array.make n false and placed = Array.make n false in
    List.iter (fun u -> in_expected.(u) <- true) expected;
    let keep u =
      let k = in_expected.(u) && not placed.(u) in
      if k then placed.(u) <- true;
      k
    in
    let groups = List.filter_map (fun g -> match List.filter keep (expand g) with [] -> None | g' -> Some g') genome.g_groups in
    let missing = List.filter_map (fun u -> if placed.(u) then None else Some [ u ]) expected in
    { g_groups = groups @ missing; g_fissioned = List.filter (fun u -> fissioned.(u)) sp.fissionable }

  (* What scoring needs of one group, computed once per distinct ordered
     member list and kept for the whole search: the callbacks are pure,
     and order matters to them ([shared_ok] reads the first member's
     block, the projection credits the first member to touch an array).
     Repair needs the shared-memory fit of every group it looks at; the
     rest is needed of solution groups only, so it is computed on demand. *)
  type verdict = {
    fits : bool;
    illegal : int Lazy.t;
        (* a group of two or more: infeasible fusion, a member that cannot fuse *)
    projection : Perfmodel.group_eval Lazy.t;
  }

  type verdicts = verdict Groups.t

  let verdicts () : verdicts = Groups.create 1024

  let verdict sp table g =
    match Groups.find_opt table g with
    | Some v -> v
    | None ->
        let illegal =
          lazy
            (if List.compare_length_with g 1 <= 0 then 0
             else
               Bool.to_int (not (sp.problem.feasible g))
               + Bool.to_int (List.exists (fun u -> not (sp.problem.model u).fusable) g))
        in
        let v = { fits = sp.problem.shared_ok g; illegal; projection = lazy (sp.problem.eval_group g) } in
        Groups.add table g v;
        v

  (* a solution as the search keeps it: the groups are its genome's *)
  type score = { fitness : float; raw_objective : float; violations : int }

  let evaluate params sp table genome =
    let verdict = verdict sp table in
    let fission_counter = ref 0 in
    (* lazy fission repair: returns the (possibly fissioned) group with its
       verdict, and the parts that left it *)
    let fissioned = ref genome.g_fissioned in
    let rec repair_group group =
      let v = verdict group in
      let victim =
        if v.fits || not params.fission_enabled then None
        else
          (* a fissionable member: an original kernel with pre-profiled parts *)
          List.find_map
            (fun u -> if mem_int u !fissioned then None else Option.map (fun ps -> (u, ps)) sp.parts.(u))
            group
      in
      match victim with
      | None -> ((group, v), [])
      | Some (victim, parts) ->
          incr fission_counter;
          fissioned := victim :: !fissioned;
          let others = List.filter (fun u -> u <> victim) group in
          let other_arrays = List.concat_map (fun u -> sp.arrays.(u)) others in
          let stays, leaves = List.partition (fun p -> intersects sp.part_arrays.(p) other_arrays) parts in
          (* keep at least one part in the group to preserve grouping *)
          let stays, leaves = match (stays, leaves) with [], p :: rest -> ([ p ], rest) | s, l -> (s, l) in
          let group'', more = repair_group (others @ stays) in
          (group'', List.map (fun p -> [ p ]) leaves @ more)
    in
    (* when no further fission can relax a violating group, split it
       greedily along array-sharing affinity into fitting subgroups (the
       final step of the dynamic relaxation) *)
    let rec greedy_split (group, v) =
      match group with
      | [] | [ _ ] -> [ (group, v) ]
      | _ when v.fits -> [ (group, v) ]
      | seed :: rest ->
          let rec grow current current_arrays candidates =
            match
              List.find_opt
                (fun u -> intersects sp.arrays.(u) current_arrays && (verdict (u :: current)).fits)
                candidates
            with
            | Some u -> grow (u :: current) (sp.arrays.(u) @ current_arrays) (List.filter (fun v -> v <> u) candidates)
            | None -> (current, candidates)
          in
          let sub, remaining = grow [ seed ] sp.arrays.(seed) rest in
          let sub = List.rev sub in
          (sub, verdict sub)
          :: (if remaining = [] then [] else greedy_split (remaining, verdict remaining))
    in
    let scored =
      List.concat_map
        (fun g ->
          let g', extra = repair_group g in
          greedy_split g' @ List.map (fun g -> (g, verdict g)) extra)
        genome.g_groups
    in
    let groups = List.map fst scored in
    let stuck_groups = List.fold_left (fun acc (_, v) -> acc + Bool.to_int (not v.fits)) 0 scored in
    let joint = sp.problem.solution_feasible ~groups ~fissioned:!fissioned in
    let violations = List.fold_left (fun acc (_, v) -> acc + Lazy.force v.illegal) stuck_groups scored in
    let violations = violations + Bool.to_int (not joint) in
    (* projections fold in solution order, as in [Perfmodel.objective] *)
    let raw = Perfmodel.solution_gflops (List.map (fun (_, v) -> Lazy.force v.projection) scored) in
    (* the penalty has a constant term (the paper's C_i) plus a term
       proportional to the raw objective, so an infeasible grouping can
       never out-score a feasible one merely by projecting more reuse *)
    let scale = Float.abs raw in
    let fitness =
      raw
      -. (float_of_int violations *. (params.c_violation +. (0.75 *. scale)))
      -. (float_of_int stuck_groups *. (params.c_sm_stuck +. (0.15 *. scale)))
    in
    let genome = { g_groups = groups; g_fissioned = List.sort_uniq (by_rank sp) !fissioned } in
    ({ fitness; raw_objective = raw; violations }, genome, !fission_counter)

  (* names only for the solutions a caller sees *)
  let solution sp (s : score) g =
    let names = List.map (fun u -> (sp.problem.model u).unit_name) in
    let groups = List.map names g.g_groups and fissioned = names g.g_fissioned in
    { groups; fissioned; fitness = s.fitness; raw_objective = s.raw_objective; violations = s.violations }

  let random_partition rng units =
    let n = List.length units in
    let n_groups = 1 + Random.State.int rng (max 1 n) in
    let buckets = Array.make n_groups [] in
    List.iter (fun u -> let i = Random.State.int rng n_groups in buckets.(i) <- u :: buckets.(i)) units;
    Array.to_list buckets |> List.filter (fun g -> g <> [])

  let crossover rng a b =
    (* inject a random selection of B's groups into A *)
    let injected = List.filter (fun _ -> Random.State.bool rng) b.g_groups in
    if injected = [] then a
    else begin
      let injected_units = List.concat injected in
      let is_injected = Array.make (1 + List.fold_left max 0 injected_units) false in
      List.iter (fun u -> is_injected.(u) <- true) injected_units;
      let kept u = u >= Array.length is_injected || not is_injected.(u) in
      let remaining =
        List.filter_map (fun g -> match List.filter kept g with [] -> None | g' -> Some g') a.g_groups
      in
      (* units of A fissioned differently than B could mismatch; keep the
         union of fissioned sets and let repair drop stale units (and
         duplicates) *)
      { g_groups = remaining @ injected; g_fissioned = a.g_fissioned @ b.g_fissioned }
    end

  let mutate rng sp genome =
    let groups = Array.of_list genome.g_groups in
    let n = Array.length groups in
    if n = 0 then genome
    else
      match Random.State.int rng 5 with
      | (0 | 1) when n >= 2 -> (
          (* affinity merge: join two groups that touch a common array --
             the merges that can actually expose locality *)
          let i = Random.State.int rng n in
          let touched = Array.make sp.n_arrays false in
          List.iter (fun u -> List.iter (fun a -> touched.(a) <- true) sp.arrays.(u)) groups.(i);
          let candidates =
            List.filteri (fun j _ -> j <> i) (Array.to_list groups)
            |> List.filter (List.exists (fun u -> List.exists (fun a -> touched.(a)) sp.arrays.(u)))
          in
          match candidates with
          | [] -> genome
          | cs ->
              let pick = List.nth cs (Random.State.int rng (List.length cs)) in
              let rest =
                Array.to_list groups |> List.filteri (fun j _ -> j <> i) |> List.filter (fun g -> g <> pick)
              in
              { genome with g_groups = (groups.(i) @ pick) :: rest })
      | 2 when n >= 2 ->
          (* merge two random groups *)
          let i = Random.State.int rng n and j = Random.State.int rng n in
          if i = j then genome
          else begin
            let merged = groups.(i) @ groups.(j) in
            let rest = Array.to_list groups |> List.filteri (fun k _ -> k <> i && k <> j) in
            { genome with g_groups = merged :: rest }
          end
      | 3 ->
          (* split a random group *)
          let i = Random.State.int rng n in
          let g = groups.(i) in
          if List.length g < 2 then genome
          else begin
            let left, right = List.partition (fun _ -> Random.State.bool rng) g in
            if left = [] || right = [] then genome
            else begin
              let rest = Array.to_list groups |> List.filteri (fun k _ -> k <> i) in
              { genome with g_groups = left :: right :: rest }
            end
          end
      | _ ->
          (* move one unit to another (possibly new) group *)
          let i = Random.State.int rng n in
          let g = groups.(i) in
          if g = [] then genome
          else begin
            let u = List.nth g (Random.State.int rng (List.length g)) in
            let g' = List.filter (fun x -> x <> u) g in
            let dest = Random.State.int rng (n + 1) in
            let rest = Array.to_list groups |> List.mapi (fun k grp -> (k, grp)) in
            let new_groups =
              List.filter_map
                (fun (k, grp) ->
                  let grp = if k = i then g' else grp in
                  let grp = if k = dest then u :: grp else grp in
                  if grp = [] then None else Some grp)
                rest
            in
            let new_groups = if dest = n then [ u ] :: new_groups else new_groups in
            { genome with g_groups = new_groups }
          end
end

open Internal

(* the memo cache's key is the canonical genome itself *)
module Genomes = Hashtbl.Make (struct
  type t = genome

  let equal a b =
    List.equal (List.equal Int.equal) a.g_groups b.g_groups && List.equal Int.equal a.g_fissioned b.g_fissioned

  let hash g =
    hash_ints (List.fold_left (fun h grp -> hash_ints ((h * 31) - 1) grp) 17 g.g_groups) g.g_fissioned
    land max_int
end)

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let run ?(on_generation = fun _ _ -> ()) ?engine ?trace params problem =
  check_params params;
  (* the caller's engine sets the memo policy; scoring runs here, in the
     calling domain, whatever the engine's width *)
  let jobs, memo = match engine with Some e -> (Engine.jobs e, Engine.memo_enabled e) | None -> (1, true) in
  let t_search = Engine.now () in
  let rng = Random.State.make [| params.seed |] in
  let sp = space problem in
  let table = verdicts () in
  let cache = Genomes.create 1024 in
  let fission_counter = ref 0 and requested = ref 0 and computed = ref 0 in
  (* a genome is repaired and canonicalized, looked up in the memo cache
     and evaluated on a miss. The per-genome fission count is replayed on
     memo hits so [fission_events] is independent of the cache setting. *)
  let score g =
    let g = normalize sp (repair_partition sp g) in
    incr requested;
    let s, g, fissions =
      match if memo then Genomes.find_opt cache g else None with
      | Some r -> r
      | None ->
          let r = evaluate params sp table g in
          incr computed;
          if memo then Genomes.add cache g r;
          r
    in
    fission_counter := !fission_counter + fissions;
    (s, g)
  in
  let score_all genomes =
    Trace.with_span trace "score" (fun () ->
        let v0 = Groups.length table in
        let scored = List.map score genomes in
        Trace.add trace "verdicts" (Groups.length table - v0);
        scored)
  in
  let initial =
    List.init params.population (fun i ->
        if i = 0 then { g_groups = List.map (fun u -> [ u ]) problem.units; g_fissioned = [] }
        else { g_groups = random_partition rng problem.units; g_fissioned = [] })
  in
  let scored = ref [] in
  (* one span per generation (gen:0 is the initial scoring), with a
     [breed] and a [score] child. Evaluation counts and population
     fitness stats are deterministic, and so is the search itself (see
     DESIGN.md 3d). *)
  let traced_generation idx f =
    let r0 = !requested and c0 = !computed in
    Trace.with_span trace (Printf.sprintf "gen:%d" idx) (fun () ->
        f ();
        Trace.add trace "requested" (!requested - r0);
        Trace.add trace "computed" (!computed - c0);
        if trace <> None then begin
          let fs = List.map (fun (s, _) -> s.fitness) !scored in
          let n = float_of_int (max 1 (List.length fs)) in
          Trace.set trace "fit_best" (Trace.Float (List.fold_left Float.max neg_infinity fs));
          Trace.set trace "fit_min" (Trace.Float (List.fold_left Float.min infinity fs));
          Trace.set trace "fit_mean" (Trace.Float (List.fold_left ( +. ) 0.0 fs /. n))
        end)
  in
  traced_generation 0 (fun () -> scored := score_all initial);
  let best = ref (List.hd !scored) in
  List.iter (fun ((s, _) as sg) -> if s.fitness > (fst !best).fitness then best := sg) !scored;
  let history = ref [ (0, (fst !best).fitness) ] in
  let tournament pop =
    let n = Array.length pop in
    let pick () = pop.(Random.State.int rng n) in
    let rec go k champ =
      if k = 0 then champ
      else
        let c = pick () in
        go (k - 1) (if (fst c).fitness > (fst champ).fitness then c else champ)
    in
    go (params.tournament - 1) (pick ())
  in
  for gen = 1 to params.generations do
    traced_generation gen (fun () ->
        (* the whole generation is bred first (every RNG draw happens
           here, in a fixed order), then scored *)
        let elite, offspring =
          Trace.with_span trace "breed" (fun () ->
              let pop = Array.of_list !scored in
              Array.sort (fun (a, _) (b, _) -> Float.compare b.fitness a.fitness) pop;
              let elite = Array.to_list (Array.sub pop 0 (min params.elitism (Array.length pop))) in
              let offspring =
                List.init (params.population - List.length elite) (fun _ ->
                    let _, ga = tournament pop in
                    let child =
                      if Random.State.float rng 1.0 < params.crossover_rate then begin
                        let _, gb = tournament pop in
                        crossover rng ga gb
                      end
                      else ga
                    in
                    if Random.State.float rng 1.0 < params.mutation_rate then mutate rng sp child else child)
              in
              (elite, offspring))
        in
        scored := elite @ score_all offspring;
        List.iter
          (fun ((s, _) as sg) ->
            if s.fitness > (fst !best).fitness then begin
              best := sg;
              history := (gen, s.fitness) :: !history
            end)
          !scored;
        on_generation gen (solution sp (fst !best) (snd !best)))
  done;
  let final = (fst !best).fitness in
  let converged_at =
    let thr = final -. (Float.abs final *. 0.001) in
    List.fold_left (fun acc (gen, f) -> if f >= thr then min acc gen else acc) params.generations !history
  in
  let search_wall_s = Engine.now () -. t_search in
  {
    best = solution sp (fst !best) (snd !best);
    history = List.rev !history;
    fission_events = !fission_counter;
    avg_fissions_per_generation = float_of_int !fission_counter /. float_of_int (max 1 params.generations);
    converged_at;
    evaluations = !requested;
    engine_stats =
      {
        es_jobs = jobs;
        es_memo = memo;
        es_requested = !requested;
        es_computed = !computed;
        es_hit_rate = (if !requested = 0 then 0.0 else 1.0 -. (float_of_int !computed /. float_of_int !requested));
        es_verdicts = Groups.length table;
        es_search_wall_s = search_wall_s;
        es_gen_wall_s = search_wall_s /. float_of_int (max 1 params.generations);
      };
  }
