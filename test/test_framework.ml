(* End-to-end pipeline and programmer-guided hooks. *)

module F = Kft_framework.Framework

let quick_gga = { Kft_gga.Gga.default_params with generations = 50; population = 24 }

let config = { F.default_config with gga_params = quick_gga }

let pc = Util.producer_consumer_program ()

let test_end_to_end_verified () =
  let r = F.transform ~config pc in
  (match r.verified with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Printf.sprintf "verification failed (%d arrays)" (List.length d)));
  Alcotest.(check bool) "speedup reported" true (r.speedup > 0.0);
  Alcotest.(check bool) "baseline time positive" true (r.baseline.total_time_us > 0.0)

let test_pipeline_fuses_pair () =
  let r = F.transform ~config pc in
  Alcotest.(check bool) "pair fused" true
    (List.exists (fun g -> List.length g = 2) r.solution_groups);
  Alcotest.(check bool) "faster than baseline" true (r.speedup > 1.0)

let test_targets_classified () =
  let app = Kft_apps.Apps.mitgcm () in
  let r = F.transform ~config:{ config with device = Kft_apps.Apps.bench_device } app.program in
  let by_kind k =
    List.length (List.filter (fun (t : F.target_info) -> t.classification = k) r.targets)
  in
  Alcotest.(check int) "14 memory-bound targets" 14
    (List.length (List.filter (fun (t : F.target_info) -> t.eligible) r.targets));
  Alcotest.(check bool) "boundary kernels excluded" true (by_kind Kft_analysis.Classify.Boundary >= 10);
  Alcotest.(check bool) "compute kernels excluded" true
    (by_kind Kft_analysis.Classify.Compute_bound >= 5)

let test_manual_filter_sees_latency () =
  let app = Kft_apps.Apps.fluam ~chains:2 () in
  let auto = F.transform ~config:{ config with device = Kft_apps.Apps.bench_device } app.program in
  let manual =
    F.transform
      ~config:{ config with device = Kft_apps.Apps.bench_device; filter_mode = F.Manual }
      app.program
  in
  let eligible (r : F.report) =
    List.length (List.filter (fun (t : F.target_info) -> t.eligible) r.targets)
  in
  Alcotest.(check bool) "manual filter drops latency kernels" true
    (eligible manual < eligible auto)

let test_no_filtering_mode () =
  let app = Kft_apps.Apps.mitgcm () in
  let r =
    F.transform
      ~config:{ config with device = Kft_apps.Apps.bench_device; filter_mode = F.No_filtering }
      app.program
  in
  (* only repeated invocations and irregular kernels remain excluded *)
  Alcotest.(check bool) "nearly all kernels targeted" true
    (List.length (List.filter (fun (t : F.target_info) -> t.eligible) r.targets) >= 35)

let test_hook_amend_targets () =
  let hooks =
    { F.no_hooks with amend_targets = (fun ts -> List.map (fun (k, _) -> (k, false)) ts) }
  in
  let r = F.transform ~config ~hooks pc in
  Alcotest.(check bool) "nothing fused" true
    (List.for_all (fun g -> List.length g <= 1) r.solution_groups);
  Util.check_float ~eps:0.02 "speedup ~1" 1.0 r.speedup

let test_hook_amend_solution () =
  (* force singletons after the search *)
  let hooks =
    { F.no_hooks with
      amend_solution = (fun gs -> List.concat_map (fun g -> List.map (fun u -> [ u ]) g) gs) }
  in
  let r = F.transform ~config ~hooks pc in
  Alcotest.(check bool) "verified" true (r.verified = Ok ());
  Alcotest.(check bool) "all singleton" true (List.for_all (fun g -> List.length g = 1) r.solution_groups)

let test_hook_amend_metadata () =
  let hooks =
    { F.no_hooks with
      amend_metadata =
        (fun m ->
          {
            m with
            performance =
              List.map
                (fun (p : Kft_metadata.Metadata.perf_entry) -> { p with runtime_us = 99.0 })
                m.performance;
          }) }
  in
  let r = F.transform ~config ~hooks pc in
  List.iter
    (fun (p : Kft_metadata.Metadata.perf_entry) -> Util.check_float "amended" 99.0 p.runtime_us)
    r.metadata.performance

(* the whole stage report of the producer/consumer pair; only the
   engine line's wall-clock fields are masked *)
let pc_report =
  {|== stage 1: metadata ==
kernels profiled: 2, baseline modeled time: 13.0 us
  profile cache: 0 hits, 2 misses this run (2 cached simulations)
  launch memo: 0 hits, 3 misses this run (5 contents, 0.0 Mcells stored)
  memory: 4 arenas, 0.0 Mcells requested

== stage 2: target identification ==
  produce                  memory-bound   [target] memory-bound target
  consume                  memory-bound   [target] memory-bound target

== stage 3: DDG / OEG ==
DDG: 5 nodes, 5 edges; OEG: 2 nodes, 1 edges
  schedflow: 2 ops (2 launches), 3 arrays, 1 deps (0 refined away by proved regions)
  schedflow regions: 5 proved, 0 whole-array fallback; 0 dataflow issues

== stage 4: GGA search ==
  best objective 3.425 GFLOPS (raw 3.425), 0 violations
  fission events: 0 (0.000 per generation), converged at generation 0
  engine: jobs=1 memo=on; 1124 evaluations (2 computed, 99.8% memo hits), 3 group verdicts; <wall>
  groups: consume+produce

== stage 5: code generation ==
  K_f01      <- [produce,consume] complex-fusion staged:2 shared:2656B block:(32,4,1) occ 0.50->0.75 !! eliminated 2 provably-true guards

== verification (kft_verify) ==
  1 launches checked
  bounds: 1 launches proved by absint, 0 unproved
  races: 1 launches proved by absint, 0 unproved
  schedule: 1 source dependences checked end-to-end, 0 launches unplaced
  clean: no races, barrier divergence, bounds violations or order violations

== lint (kft_absint) ==
  0 warnings, 1 advisory note

== result ==
speedup: 1.939x (13.0 us -> 6.7 us), verification: OK
|}

let mask_wall line =
  if String.starts_with ~prefix:"  engine: " line then
    String.sub line 0 (String.rindex line ';') ^ "; <wall>"
  else line

let test_stage_report_text () =
  let text = F.stage_report (F.transform ~config pc) in
  Alcotest.(check string) "stage report" pc_report
    (String.concat "\n" (List.map mask_wall (String.split_on_char '\n' text)))

(* the roofline filter reads the configured device: at a 1 GFLOPS peak
   the ridge point lies below the pair's operational intensity *)
let test_filter_uses_device () =
  let device = { Kft_device.Device.k20x with peak_gflops_double = 1.0 } in
  let r = F.transform ~config:{ config with device } pc in
  Alcotest.(check (list string)) "both kernels compute-bound" [ "compute-bound"; "compute-bound" ]
    (List.map (fun (t : F.target_info) -> Kft_analysis.Classify.to_string t.classification) r.targets)

let test_fission_flows_through () =
  let app = Kft_apps.Apps.awp_odc () in
  let r =
    F.transform
      ~config:
        { config with
          device = Kft_apps.Apps.bench_device;
          gga_params = { quick_gga with generations = 120; population = 40 } }
      app.program
  in
  Alcotest.(check bool) "verified" true (r.verified = Ok ());
  Alcotest.(check bool) "fission plans computed" true (List.length r.fission_plans >= 2);
  Alcotest.(check bool) "kernels fissioned in best solution" true (List.length r.fissioned >= 1);
  (* fission parts appear in the transformed program *)
  let part_names =
    List.filter
      (fun k ->
        let n = k.Kft_cuda.Ast.k_name in
        List.exists (fun f ->
            String.length n > String.length f && String.sub n 0 (String.length f) = f)
          r.fissioned)
      r.transformed.p_kernels
  in
  Alcotest.(check bool) "parts or their fusions emitted" true
    (List.length part_names > 0 || List.exists (fun g -> List.length g > 1) r.solution_groups)

(* a source kernel whose name looks like a fission part is still its own
   kernel: [a__f1] consumes [c]'s output and fuses with it, although
   [a] -> [m] -> [c] would forbid fusing [a] itself with [c] ([m]
   updates one row, too little of the grid to be a target) *)
let test_part_like_name_is_a_kernel () =
  let dims = (32, 16, 8) in
  let src =
    Util.pointwise_src ~name:"a" ~a:"A" ~b:"W" ~dst:"X"
    ^ {|
__global__ void m(const double *X, const double *W, double *Y, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < 1) {
    for (int k = 0; k < nz; k++) {
      Y[(k * ny + j) * nx + i] = c * (X[(k * ny + j) * nx + i] + W[(k * ny + j) * nx + i]);
    }
  }
}
|}
    ^ Util.pointwise_src ~name:"c" ~a:"Y" ~b:"W" ~dst:"V"
    ^ Util.pointwise_src ~name:"a__f1" ~a:"V" ~b:"W" ~dst:"Z"
  in
  let launch k args =
    Kft_cuda.Ast.Launch
      { l_kernel = k; l_domain = (32, 16, 1); l_block = (16, 4, 1); l_args = Util.std_args dims args 0.5 }
  in
  let prog =
    {
      Kft_cuda.Ast.p_name = "part_like";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "W"; "X"; "Y"; "V"; "Z" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule =
        [
          launch "a" [ "A"; "W"; "X" ];
          launch "m" [ "X"; "W"; "Y" ];
          launch "c" [ "Y"; "W"; "V" ];
          launch "a__f1" [ "V"; "W"; "Z" ];
        ];
    }
  in
  let r = F.transform ~config prog in
  Alcotest.(check bool) "c and a__f1 fused" true
    (List.exists (fun g -> List.sort compare g = [ "a__f1"; "c" ]) r.solution_groups);
  Alcotest.(check bool) "output verified" true (r.verified = Ok ())

(* [a] splits into [a__f1] and [a__f2], but the program already has a
   kernel [a__f1]: [a] gets no plan, so the fissioned program stays valid *)
let test_part_name_clash () =
  let dims = (32, 16, 8) in
  let src =
    {|
__global__ void a(const double *A, const double *B, double *X, double *Y, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      X[(k * ny + j) * nx + i] = c * A[(k * ny + j) * nx + i];
      Y[(k * ny + j) * nx + i] = c * B[(k * ny + j) * nx + i];
    }
  }
}
|}
    ^ Util.pointwise_src ~name:"a__f1" ~a:"X" ~b:"Y" ~dst:"Z"
  in
  let launch k args =
    Kft_cuda.Ast.Launch
      { l_kernel = k; l_domain = (32, 16, 1); l_block = (16, 4, 1); l_args = Util.std_args dims args 0.5 }
  in
  let prog =
    {
      Kft_cuda.Ast.p_name = "part_clash";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "X"; "Y"; "Z" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule = [ launch "a" [ "A"; "B"; "X"; "Y" ]; launch "a__f1" [ "X"; "Y"; "Z" ] ];
    }
  in
  Alcotest.(check bool) "a is fissionable" true
    (Kft_fission.Fission.fissionable (Kft_cuda.Ast.find_kernel prog "a"));
  let r = F.transform ~config prog in
  Alcotest.(check (list string)) "no plan for a" [] (List.map fst r.fission_plans);
  Alcotest.(check (list string)) "fissioned program is valid" []
    (List.map Kft_cuda.Check.pp_error
       (Kft_cuda.Check.program (Kft_fission.Fission.apply_to_program ~plans:r.fission_plans prog)));
  Alcotest.(check bool) "output verified" true (r.verified = Ok ())

(* the caller owns the simulation cache: a second transform on the same
   [Some c] replays every program the first one simulated (the source
   gather and the transformed run), while [None] gives each transform a
   fresh cache, so nothing carries over *)
let test_caller_owned_cache () =
  let counts sim_cache =
    match (F.transform ~config:{ config with sim_cache } pc).sim_cache_stats with
    | Some s -> (s.hits, s.misses)
    | None -> Alcotest.fail "the report carries cache stats"
  in
  let c = Kft_metadata.Metadata.Sim_cache.create () in
  let h1, m1 = counts (Some c) in
  Alcotest.(check int) "first transform on c: no program hit" 0 h1;
  Alcotest.(check bool) "first transform on c simulates" true (m1 > 0);
  Alcotest.(check (pair int int)) "second transform on c: every program hits" (m1, 0)
    (counts (Some c));
  Alcotest.(check (pair int int)) "None: first transform misses" (0, m1) (counts None);
  Alcotest.(check (pair int int)) "None: second transform misses too" (0, m1) (counts None)

(* a launch whose domain (4,4,1) is smaller than the arrays its guard
   reads: a block of (32,4,1) would round the grid up and write cells
   the source never wrote, so codegen keeps the source block (16,4,1) *)
let retuned_program () =
  let dims = (32, 16, 2) in
  {
    Kft_cuda.Ast.p_name = "retuned";
    p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "X" ];
    p_kernels = Kft_cuda.Parse.kernels (Util.pointwise_src ~name:"scale" ~a:"A" ~b:"B" ~dst:"X");
    p_schedule =
      [
        Kft_cuda.Ast.Launch
          {
            l_kernel = "scale";
            l_domain = (4, 4, 1);
            l_block = (16, 4, 1);
            l_args = Util.std_args dims [ "A"; "B"; "X" ] 0.5;
          };
      ];
  }

let test_unproved_retune_refused () =
  let config = { config with filter_mode = F.No_filtering; verify_mode = F.Verify_fatal } in
  let r = F.transform ~config (retuned_program ()) in
  Alcotest.(check bool) "output verified" true (r.verified = Ok ());
  match r.codegen.reports with
  | [ k ] ->
      Alcotest.(check bool) "not tuned" false k.tuned;
      Alcotest.(check (triple int int int)) "source block kept" (16, 4, 1) k.block;
      Alcotest.(check bool) "a note names the refused retune" true
        (List.exists (fun n -> String.starts_with ~prefix:"kept block 16x4x1" n) k.notes)
  | ks -> Alcotest.failf "expected one kernel, got %d" (List.length ks)

(* no transform of a bundled program fails its output check, so a
   tolerance below zero (every array differs from itself by 0 > -1)
   makes the check fail; under [Verify_fatal] that must raise, not
   return *)
let test_fatal_output_check_raises () =
  let config =
    { config with filter_mode = F.No_filtering; verify_mode = F.Verify_fatal; verify_tolerance = -1.0 }
  in
  match F.transform ~config (retuned_program ()) with
  | (_ : F.report) -> Alcotest.fail "a failed output check returned a report"
  | exception F.Output_mismatch diffs ->
      Alcotest.(check (list string)) "every array, each by 0" [ "A"; "B"; "X" ] (List.map fst diffs);
      Alcotest.(check bool) "no real difference" true (List.for_all (fun (_, d) -> d = 0.0) diffs)

(* [lo] and [hi] fuse around [mid] because their halves of X are
   proved disjoint (see [Util.halves_program]); forced through the
   solution hook under fatal verification, the pair reaches codegen as
   one group and the output checks *)
let test_refined_group_fuses () =
  let hooks = { F.no_hooks with amend_solution = (fun _ -> [ [ "lo"; "hi" ]; [ "mid" ] ]) } in
  let r =
    F.transform ~config:{ config with verify_mode = F.Verify_fatal } ~hooks (Util.halves_program ())
  in
  Alcotest.(check (list (list string))) "codegen groups" [ [ "lo"; "hi" ]; [ "mid" ] ]
    (List.map (fun (k : Kft_codegen.Codegen.kernel_report) -> k.members) r.codegen.reports);
  Alcotest.(check bool) "lo+hi fused" true ((List.hd r.codegen.reports).fusion_kind <> `None);
  Alcotest.(check (list string)) "nothing rejected" [] (List.map fst r.rejected_groups);
  Alcotest.(check bool) "output verified" true (r.verified = Ok ())

(* [diffuse] -> [smooth] -> [relax]: grouping the outer two around the
   middle one contracts to a cycle, so the schedule stage breaks every
   group up and keeps the source order *)
let test_cyclic_grouping_falls_back () =
  let hooks =
    { F.no_hooks with amend_solution = (fun _ -> [ [ "diffuse"; "relax" ]; [ "smooth" ] ]) }
  in
  let prog = Util.quickstart_program () in
  let r = F.transform ~config:{ config with verify_mode = F.Verify_fatal } ~hooks prog in
  Alcotest.(check (list (list string))) "every group broken up, source order"
    [ [ "diffuse" ]; [ "smooth" ]; [ "relax" ] ]
    (List.map (fun (k : Kft_codegen.Codegen.kernel_report) -> k.members) r.codegen.reports);
  Alcotest.(check bool) "nothing fused" true
    (List.for_all
       (fun (k : Kft_codegen.Codegen.kernel_report) -> k.fusion_kind = `None)
       r.codegen.reports);
  Alcotest.(check bool) "output verified" true (r.verified = Ok ())

(* the search's joint feasibility reads successor arrays built once per
   search. It must agree with contracting successors built directly from
   the OEG for each solution, every fissioned invocation replaced by its
   parts, over random groupings of B-CALM's units (the one bundled app
   whose search fissions) with and without each fission plan *)
let test_joint_feasibility_with_fission () =
  let graphs, problem = F.Internal.search_problem ~config (Kft_apps.Apps.bcalm ()).program in
  let plans = problem.fission_parts in
  Alcotest.(check bool) "B-CALM has fission plans" true (List.length plans >= 2);
  let n_inv = Array.length graphs.oeg in
  let n_units = n_inv + List.length (List.concat_map snd plans) in
  let direct ~groups ~fissioned =
    let present =
      Array.init n_inv (fun i ->
          match List.assoc_opt i plans with Some ps when List.mem i fissioned -> ps | _ -> [ i ])
    in
    let succs = Array.make n_units [] in
    Array.iteri
      (fun i us ->
        let below = List.concat_map (fun j -> present.(j)) graphs.oeg.(i) in
        List.iter (fun u -> succs.(u) <- below) us)
      present;
    let label = Array.init n_units (fun u -> List.length groups + u) in
    List.iteri (fun g us -> List.iter (fun u -> label.(u) <- g) us) groups;
    Option.is_some (F.Internal.contract succs label)
  in
  let originals = List.map fst plans in
  let subsets =
    ([] :: originals :: List.map (fun i -> [ i ]) originals)
    @ List.map (fun i -> List.filter (( <> ) i) originals) originals
  in
  let rng = Random.State.make [| 11 |] in
  let verdicts =
    List.concat_map
      (fun fissioned ->
        let units =
          List.concat_map
            (fun u -> if List.mem u fissioned then List.assoc u plans else [ u ])
            problem.units
        in
        let random_grouping () =
          let buckets = Array.make (1 + Random.State.int rng (List.length units)) [] in
          List.iter
            (fun u ->
              let b = Random.State.int rng (Array.length buckets) in
              buckets.(b) <- u :: buckets.(b))
            units;
          List.filter (( <> ) []) (Array.to_list buckets)
        in
        List.map
          (fun groups ->
            let expected = direct ~groups ~fissioned in
            Alcotest.(check bool) "agrees with the direct construction" expected
              (problem.solution_feasible ~groups ~fissioned);
            expected)
          (List.map (fun u -> [ u ]) units :: List.init 40 (fun _ -> random_grouping ())))
      subsets
  in
  Alcotest.(check bool) "both verdicts occur" true
    (List.mem true verdicts && List.mem false verdicts)

let suite =
  [
    Alcotest.test_case "end-to-end verified" `Quick test_end_to_end_verified;
    Alcotest.test_case "caller-owned simulation cache" `Quick test_caller_owned_cache;
    Alcotest.test_case "pipeline fuses the pair" `Quick test_pipeline_fuses_pair;
    Alcotest.test_case "target classification" `Quick test_targets_classified;
    Alcotest.test_case "manual filter sees latency kernels" `Quick test_manual_filter_sees_latency;
    Alcotest.test_case "no-filtering mode" `Quick test_no_filtering_mode;
    Alcotest.test_case "hook: amend targets" `Quick test_hook_amend_targets;
    Alcotest.test_case "hook: amend solution" `Quick test_hook_amend_solution;
    Alcotest.test_case "hook: amend metadata" `Quick test_hook_amend_metadata;
    Alcotest.test_case "stage report text" `Quick test_stage_report_text;
    Alcotest.test_case "target filter uses the configured device" `Quick test_filter_uses_device;
    Alcotest.test_case "fission flows through pipeline" `Quick test_fission_flows_through;
    Alcotest.test_case "joint feasibility with fission" `Quick test_joint_feasibility_with_fission;
    Alcotest.test_case "part-like kernel name is not a part" `Quick
      test_part_like_name_is_a_kernel;
    Alcotest.test_case "no fission plan whose part names are taken" `Quick test_part_name_clash;
    Alcotest.test_case "fatal verify raises on an output mismatch" `Quick
      test_fatal_output_check_raises;
    Alcotest.test_case "an unproved block retune is refused" `Quick test_unproved_retune_refused;
    Alcotest.test_case "a group legal under refined deps fuses" `Quick test_refined_group_fuses;
    Alcotest.test_case "a cyclic grouping falls back to the source" `Quick
      test_cyclic_grouping_falls_back;
  ]

let test_validation_gate () =
  let bad =
    { pc with
      p_schedule =
        [ Kft_cuda.Ast.Launch
            { l_kernel = "nope"; l_domain = (4, 4, 1); l_block = (4, 4, 1); l_args = [] } ] }
  in
  match F.transform ~config bad with
  | (_ : F.report) -> Alcotest.fail "expected validation failure"
  | exception Invalid_argument _ -> ()

let validation_suite =
  [ Alcotest.test_case "frontend validation gate" `Quick test_validation_gate ]
