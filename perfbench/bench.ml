(* Worker process of the pipeline benchmark (driven by run.py).

   run.py spawns one worker per measurement, so every run starts cold
   the way one kft-transform invocation does: the arena pool, the
   vector-eligibility memo and every profile cache start empty, and each
   transform gets its own fresh Sim_cache.

   Usage:
     bench.exe MODE --workload NAME --seed N --t0 EPOCH [--check]

   MODE is one of
     setup  build and check the workload's programs, create the engine
     run    setup, then transform every program once with tracing off
     trace  setup, then transform every program once under a trace, time
            each layer's public functions on the reports' own artifacts,
            and check every output against the reference interpreter

   [--t0] is the wall-clock time (seconds since the epoch) at which the
   parent spawned this process, so [setup_s] covers process start-up.
   [--check] makes [run] run every transformed program again after the
   timed part and compare its output with the reference interpreter's.
   A run drops each program's reports before the next program, so its
   [peak_rss_mb] measures the transforms, not results the benchmark
   holds on to. Each mode prints one
   JSON object as the last line of standard output. *)

module F = Kft_framework.Framework
module Apps = Kft_apps.Apps
module Gen = Kft_apps.Gen
module Gga = Kft_gga.Gga
module Engine = Kft_engine.Engine
module Fusion = Kft_codegen.Fusion
module Canonical = Kft_codegen.Canonical
module Codegen = Kft_codegen.Codegen
module Meta = Kft_metadata.Metadata
module Interp = Kft_sim.Interp
module Memory = Kft_sim.Memory
module Profiler = Kft_sim.Profiler
module Verify = Kft_verify.Verify
module Fission = Kft_fission.Fission
module Perfmodel = Kft_perfmodel.Perfmodel
module Trace = Kft_trace.Trace
module Ddg = Kft_ddg.Ddg
module Schedflow = Kft_schedflow.Schedflow
module Lint = Kft_absint.Lint
open Kft_cuda.Ast

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  apps : unit -> Apps.app list;
  generations : int;
  population : int;
  verify_mode : F.verify_mode;
  jobs : int;  (** engine width; 0 runs without an engine *)
  guided : bool;
      (** re-transform each program programmer-guided after the automated
          pass, sharing its profile cache (the paper's Figure 2 loop) *)
}

(* 16x the default cells of MITgcm and B-CALM *)
let big = { Gen.nx = 256; ny = 64; nz = 12 }

let workloads =
  [
    ( "verify-bound",
      {
        apps = (fun () -> [ Apps.mitgcm (); Apps.homme (); Apps.awp_odc () ]);
        generations = 40;
        population = 20;
        verify_mode = F.Verify_advisory;
        jobs = 2;
        guided = false;
      } );
    ( "search-bound",
      {
        apps = (fun () -> [ Apps.scale_les () ]);
        generations = 60;
        population = 40;
        verify_mode = F.Verify_off;
        jobs = 2;
        guided = false;
      } );
    ( "sim-bound",
      {
        apps = (fun () -> [ Apps.mitgcm ~dims:big (); Apps.bcalm ~dims:big () ]);
        generations = 10;
        population = 20;
        verify_mode = F.Verify_off;
        jobs = 0;
        guided = true;
      } );
    (* tiny budget for run.py --selftest: exercises every code path *)
    ( "selftest",
      {
        apps = (fun () -> [ Apps.quickstart () ]);
        generations = 2;
        population = 10;
        verify_mode = F.Verify_advisory;
        jobs = 1;
        guided = true;
      } );
  ]

let config w ~seed =
  {
    F.default_config with
    device = Apps.bench_device;
    gga_params = { Gga.default_params with generations = w.generations; population = w.population };
    codegen_options = Fusion.auto_options;
    filter_mode = F.Automated;
    verify_mode = w.verify_mode;
    seed;
    sim_cache = Some (Meta.Sim_cache.create ());
    backend = Interp.Auto;
  }

(* ------------------------------------------------------------------ *)
(* One run: transform every program once                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  label : string;
  program : program;
  cfg : F.config;
  first_pass : bool;  (** the automated pass (every transform outside sim-bound) *)
  seconds : float;
  result : (F.report, string) result;  (** [Error] carries the exception *)
  trace : Trace.t option;
}

(* [keep] reduces each outcome to what the caller needs as soon as its
   pass ends, so a run may drop the report, its memories and the profile
   cache before the next program. *)
let transform_app w ~seed ?engine ~traced ~keep (app : Apps.app) =
  let pass label ~first_pass cfg hooks =
    let trace = if traced then Some (Trace.create label) else None in
    let t0 = now () in
    let result =
      match F.transform ~config:cfg ~hooks ?engine ?trace app.program with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e)
    in
    { label; program = app.program; cfg; first_pass; seconds = now () -. t0; result; trace }
  in
  let cfg = config w ~seed in
  if not w.guided then [ keep (pass app.app_name ~first_pass:true cfg F.no_hooks) ]
  else
    let auto = pass (app.app_name ^ "/auto") ~first_pass:true cfg F.no_hooks in
    match auto.result with
    | Error _ -> [ keep auto ]
    | Ok r ->
        let groups = r.F.solution_groups in
        let auto = keep auto in
        (* same fresh cache: gather replays the automated pass's run *)
        let guided_cfg =
          { cfg with codegen_options = { Fusion.manual_options with tune_blocks = true } }
        in
        let hooks = { F.no_hooks with amend_solution = (fun _ -> groups) } in
        [ auto; keep (pass (app.app_name ^ "/guided") ~first_pass:false guided_cfg hooks) ]

(* Every program of the workload, each dropped before the next: a full
   major collection frees what [keep] let go of (grids are off-heap and
   freed by their finalisers), outside the timed passes. *)
let transform_all w ~seed ?engine ~traced ~keep apps =
  List.concat_map
    (fun app ->
      let kept = transform_app w ~seed ?engine ~traced ~keep app in
      Gc.full_major ();
      kept)
    apps

(* ------------------------------------------------------------------ *)
(* Correctness: reference interpreter vs the transformed program        *)
(* ------------------------------------------------------------------ *)

let seeded (p : program) seed =
  let m = Memory.create p.p_arrays in
  Memory.init_seeded m ~seed;
  m

let sim_run ?engine ?affine ?backend p seed =
  let m = seeded p seed in
  let t0 = now () in
  let launches = Interp.run_schedule ?engine ?affine ?backend m p in
  let t = now () -. t0 in
  let threads = List.fold_left (fun acc (_, (s : Interp.stats)) -> acc + s.threads_launched) 0 launches in
  (m, t, threads)

(* Final memory of the source under the reference interpreter, one per
   program (the guided pass reuses the automated pass's). The reference
   runs after the timed part, block-parallel on its own engine: blocks
   are independent and the result is bit-identical at any width. *)
let references : (string, Memory.t) Hashtbl.t = Hashtbl.create 4

let reference_engine = lazy (Engine.create ~jobs:2 ~memo:false ())

let reference (cfg : F.config) (source : program) =
  match Hashtbl.find_opt references source.p_name with
  | Some m -> m
  | None ->
      let m, _, _ = sim_run ~engine:(Lazy.force reference_engine) ~affine:false source cfg.seed in
      Hashtbl.replace references source.p_name m;
      m

(* Arrays on which [mem], the final memory of the transformed program run
   on the configured backend, differs from the reference run of [source]
   by more than the tolerance. Like [Profiler.verify], only arrays common
   to both programs are compared: a transformation may drop temporaries. *)
let check_memory (cfg : F.config) source mem =
  let mref = reference cfg source in
  List.filter
    (fun (a, d) -> Memory.mem mref a && Memory.mem mem a && not (d <= cfg.verify_tolerance))
    (Memory.max_abs_diff mref mem)

let check ?engine (cfg : F.config) (source, transformed) =
  let mem, _, _ = sim_run ?engine ~backend:cfg.backend transformed cfg.seed in
  let bad = check_memory cfg source mem in
  Memory.release mem;
  bad

let diffs_msg what diffs =
  what ^ String.concat "," (List.map (fun (a, d) -> Printf.sprintf "%s(%g)" a d) diffs)

(* the pipeline's own verdict: raised, or verified = Error *)
let pipeline_failure o =
  match o.result with
  | Error e -> Some ("raised " ^ e)
  | Ok { F.verified = Error diffs; _ } -> Some (diffs_msg "verified = Error on " diffs)
  | Ok _ -> None

let with_check failure bad =
  match (failure, bad) with
  | Some f, _ -> Some f
  | None, [] -> None
  | None, bad -> Some (diffs_msg "reference mismatch on " bad)

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

type json = Num of float | Int of int | Str of string | List of json list | Obj of (string * json) list

let rec to_json = function
  | Num f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | Int i -> string_of_int i
  | Str s -> "\"" ^ Lint.json_escape s ^ "\""
  | List l -> "[" ^ String.concat "," (List.map to_json l) ^ "]"
  | Obj kv -> "{" ^ String.concat "," (List.map (fun (k, v) -> to_json (Str k) ^ ":" ^ to_json v) kv) ^ "}"

(* Counters that must repeat exactly across runs (run.py compares them
   within one invocation and across invocations with the same seed). *)
let fingerprint o =
  match o.result with
  | Error _ -> []
  | Ok r ->
      let computed = match r.F.gga with Some g -> g.Gga.engine_stats.es_computed | None -> 0 in
      let threads =
        List.fold_left
          (fun acc (p : Profiler.kernel_profile) -> acc + p.stats.threads_launched)
          0 r.baseline.profiles
      in
      [
        ("modeled_speedup", Str (Printf.sprintf "%.17g" r.speedup));
        ("transformed_digest", Str (Digest.to_hex (Digest.string (Kft_cuda.Pp.program r.transformed))));
        ("gga.evals_computed", Int computed);
        ("verify.events", Int r.verify_report.stats.events);
        ("sim.threads", Int threads);
        ("sim.pool_requests", Int r.pool_stats.requests);
      ]
      @
      match o.trace with
      | Some tr ->
          let c = Trace.counters tr "search" in
          [ ("codegen.plan_cache_entries", Int (Option.value ~default:0 (List.assoc_opt "plan_cache_entries" c))) ]
      | None -> []

(* What a run keeps of one transform once its pass ends *)
type kept = {
  k_label : string;
  k_seconds : float;
  k_speedup : float;
  k_failure : string option;  (** the pipeline's, before the reference check *)
  k_fingerprint : (string * json) list;
  k_programs : (program * program) option;  (** source and transformed, when checked later *)
}

let keep ~checked o =
  {
    k_label = o.label;
    k_seconds = o.seconds;
    k_speedup = (match o.result with Ok r -> r.F.speedup | Error _ -> nan);
    k_failure = pipeline_failure o;
    k_fingerprint = fingerprint o;
    k_programs = (match o.result with Ok r when checked -> Some (o.program, r.F.transformed) | _ -> None);
  }

let row_json k ~failure =
  Obj
    [
      ("label", Str k.k_label);
      ("seconds", Num k.k_seconds);
      ("speedup", Num k.k_speedup);
      ("failure", Str (Option.value ~default:"" failure));
      ("fingerprint", Obj k.k_fingerprint);
    ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (trace mode)                                       *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = now () in
  ignore (f ());
  now () -. t0

(* Wall time per call of a cheap function, repeated for >= 20 ms *)
let per_call_s f =
  let t0 = now () in
  let n = ref 0 in
  while
    f ();
    incr n;
    now () -. t0 < 0.02
  do
    ()
  done;
  (now () -. t0) /. float_of_int !n

let span o name =
  match o.trace with
  | None -> 0.0
  | Some tr -> List.fold_left (fun acc (n, s) -> if n = name then acc +. s else acc) 0.0 (Trace.top_spans tr)

let launches (p : program) = List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule

let vector_launches backend p =
  List.length (List.filter (fun l -> Interp.selected_backend ~backend p l = Interp.Vector) (launches p))

(* post-fission source: the program codegen and Verify.validate saw *)
let post_fission o (r : F.report) =
  match List.filter (fun (k, _) -> List.mem k r.F.fissioned) r.fission_plans with
  | [] -> o.program
  | plans -> Fission.apply_to_program ~plans o.program

(* Unit models of the final solution's groups; fission parts come from
   the fully-fissioned variant the pipeline profiled (a cache hit: same
   program, seed, device and arena layout). *)
let solution_models o (r : F.report) =
  let fissioned_meta =
    lazy
      (let pf = Fission.apply_to_program ~plans:r.F.fission_plans o.program in
       let layout = Schedflow.arena_layout (Schedflow.analyze pf) in
       let m, run = Meta.gather ?cache:o.cfg.sim_cache ?layout ~seed:o.cfg.seed o.cfg.device pf in
       Memory.release run.memory;
       m)
  in
  List.map
    (List.map (fun name ->
         match Perfmodel.of_metadata r.metadata name with
         | m -> m
         | exception Not_found -> Perfmodel.of_metadata (Lazy.force fissioned_meta) name))
    r.solution_groups

let fused_members o (r : F.report) =
  let src = post_fission o r in
  let deep = o.cfg.codegen_options.deep_nest_strategy in
  List.filter_map
    (fun (k : Codegen.kernel_report) ->
      if k.fusion_kind = `None then None
      else
        Some
          (List.mapi
             (fun index name -> Canonical.extract ~deep ~index src (List.find (fun l -> l.l_kernel = name) (launches src)))
             k.members))
    r.codegen.reports

let layer_metrics ?engine ~pool:(batches, steals) outcomes =
  let sum f = List.fold_left (fun acc o -> match o.result with Ok r -> acc +. f o r | Error _ -> acc) 0.0 outcomes in
  let isum f = int_of_float (sum (fun o r -> float_of_int (f o r))) in
  let fl = float_of_int in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let span_sum name = sum (fun o _ -> span o name) in
  (* Direct calls into each layer, on each report's own artifacts. Calls
     on the source program (simulation, Check, DDG, schedflow) and the
     verifier's run on the automated pass only: the guided pass shares
     its source, and verify is off wherever a guided pass runs. *)
  let sim_run_s = ref 0.0 and sim_threads = ref 0 and transformed_run_s = ref 0.0 in
  let launch_ms = ref [] in
  let direct =
    List.filter_map
      (fun o ->
        match o.result with
        | Error _ -> None
        | Ok r ->
            let mt, t', _ = sim_run ?engine ~backend:o.cfg.backend r.transformed o.cfg.seed in
            let bad = check_memory o.cfg o.program mt in
            Memory.release mt;
            transformed_run_s := !transformed_run_s +. t';
            let models = solution_models o r in
            let objective_s = per_call_s (fun () -> ignore (Perfmodel.objective o.cfg.device models)) in
            let check_group_s =
              List.fold_left
                (fun acc ms -> acc +. per_call_s (fun () -> ignore (Fusion.check_group ms)))
                0.0 (fused_members o r)
            in
            let measured =
              List.map
                (fun (p : Profiler.kernel_profile) ->
                  (p.kernel, fl (p.stats.global_read_bytes + p.stats.global_write_bytes)))
                r.transformed_run.profiles
            in
            let lint_s = time (fun () -> Lint.program ~measured r.transformed) in
            let per_pass =
              [
                ("perfmodel.objective_us", objective_s *. 1e6);
                ("codegen.check_group_us", check_group_s *. 1e6);
                ("absint.lint_s", lint_s);
              ]
            in
            if not o.first_pass then Some (o.label, bad, per_pass)
            else begin
              let m, t, threads = sim_run ?engine ~backend:o.cfg.backend o.program o.cfg.seed in
              Memory.release m;
              sim_run_s := !sim_run_s +. t;
              sim_threads := !sim_threads + threads;
              let src = post_fission o r in
              let validate_s =
                time (fun () -> Verify.validate ~options:o.cfg.codegen_options ~source:src r.codegen)
              in
              (* verify_program folds verify_launch over the schedule under
                 one event budget; with no report incomplete, the per-launch
                 times sum to its cost *)
              let passes_s =
                List.fold_left
                  (fun acc l ->
                    let s = time (fun () -> Verify.verify_launch r.transformed l) in
                    launch_ms := (s *. 1000.0) :: !launch_ms;
                    acc +. s)
                  0.0 (launches r.transformed)
              in
              let check_s = time (fun () -> Kft_cuda.Check.program o.program) in
              let ddg_s = time (fun () -> Ddg.build o.program) in
              let schedflow_s = time (fun () -> Schedflow.analyze o.program) in
              Some
                ( o.label,
                  bad,
                  per_pass
                  @ [
                      ("verify.validate_s", validate_s);
                      ("verify.passes123_s", passes_s);
                      ("cuda.check_s", check_s);
                      ("ddg.build_s", ddg_s);
                      ("schedflow.analyze_s", schedflow_s);
                    ] )
            end)
      outcomes
  in
  let direct_sum name =
    List.fold_left (fun acc (_, _, kv) -> acc +. Option.value ~default:0.0 (List.assoc_opt name kv)) 0.0 direct
  in
  let mismatches = List.filter_map (fun (label, bad, _) -> if bad = [] then None else Some (label, bad)) direct in
  let hits = isum (fun _ r -> match r.F.sim_cache_stats with Some s -> s.hits | None -> 0) in
  let misses = isum (fun _ r -> match r.F.sim_cache_stats with Some s -> s.misses | None -> 0) in
  let requested = isum (fun _ r -> match r.F.gga with Some g -> g.Gga.engine_stats.es_requested | None -> 0) in
  let computed = isum (fun _ r -> match r.F.gga with Some g -> g.Gga.engine_stats.es_computed | None -> 0) in
  let search_s = span_sum "search" and verify_s = span_sum "verify" in
  let events = isum (fun _ r -> r.F.verify_report.stats.events) in
  let first = List.filter (fun o -> o.first_pass) outcomes in
  let vec_src = isum (fun o _ -> if o.first_pass then vector_launches o.cfg.backend o.program else 0) in
  let n_src = isum (fun o _ -> if o.first_pass then List.length (launches o.program) else 0) in
  let vec_tr = isum (fun o r -> vector_launches o.cfg.backend r.F.transformed) in
  let n_tr = isum (fun _ r -> List.length (launches r.F.transformed)) in
  let sorted_ms = List.sort compare !launch_ms in
  let p50 = match sorted_ms with [] -> 0.0 | l -> List.nth l ((List.length l - 1) / 2) in
  let max_ms = List.fold_left max 0.0 sorted_ms in
  (* stage shares of the automated pass, over the traced wall time *)
  let first_wall = List.fold_left (fun acc o -> acc +. o.seconds) 0.0 first in
  let first_span names =
    List.fold_left (fun acc o -> List.fold_left (fun acc n -> acc +. span o n) acc names) 0.0 first
  in
  let plan_entries =
    isum (fun o _ ->
        match o.trace with
        | Some tr -> Option.value ~default:0 (List.assoc_opt "plan_cache_entries" (Trace.counters tr "search"))
        | None -> 0)
  in
  let metrics =
    [
      ("metadata.gather_s", span_sum "gather", "s");
      ("metadata.profile_transformed_s", span_sum "profile-transformed", "s");
      ("metadata.output_verify_s", span_sum "output-verify", "s");
      ("metadata.cache_hits", fl hits, "count");
      ("metadata.cache_misses", fl misses, "count");
      ("metadata.cache_hit_ratio", ratio (fl hits) (fl (hits + misses)), "ratio");
      ("sim.run_s", !sim_run_s, "s");
      ("sim.mcells_per_s", ratio (fl !sim_threads /. 1e6) !sim_run_s, "Mcells/s");
      ("sim.transformed_run_s", !transformed_run_s, "s");
      ("sim.threads", fl !sim_threads, "count");
      ("sim.vector_share_source", ratio (fl vec_src) (fl n_src), "ratio");
      ("sim.vector_share_transformed", ratio (fl vec_tr) (fl n_tr), "ratio");
      ("sim.pool_requests", fl (isum (fun _ r -> r.F.pool_stats.requests)), "count");
      ( "sim.pool_high_water_mcells",
        List.fold_left
          (fun acc o -> match o.result with Ok r -> max acc (fl r.F.pool_stats.high_water /. 1e6) | Error _ -> acc)
          0.0 outcomes,
        "Mcells" );
      ("fission.s", span_sum "fission", "s");
      ("gga.search_s", search_s, "s");
      ("gga.evals_requested", fl requested, "count");
      ("gga.evals_computed", fl computed, "count");
      ("gga.memo_hit_ratio", (if requested > 0 then 1.0 -. (fl computed /. fl requested) else 0.0), "ratio");
      ("gga.computed_evals_per_s", ratio (fl computed) search_s, "1/s");
      ("perfmodel.objective_us", direct_sum "perfmodel.objective_us", "us");
      ("codegen.check_group_us", direct_sum "codegen.check_group_us", "us");
      ("codegen.plan_cache_entries", fl plan_entries, "count");
      ("codegen.s", span_sum "codegen", "s");
      ( "codegen.fused_kernels",
        fl
          (isum (fun _ r ->
               List.length (List.filter (fun (k : Codegen.kernel_report) -> k.fusion_kind <> `None) r.F.codegen.reports))),
        "count" );
      ("engine.batches", fl batches, "count");
      ("engine.steals", fl steals, "count");
      ("verify.s", verify_s, "s");
      ("verify.validate_s", direct_sum "verify.validate_s", "s");
      ("verify.passes123_s", direct_sum "verify.passes123_s", "s");
      ("verify.launch_p50_ms", p50, "ms");
      ("verify.launch_max_ms", max_ms, "ms");
      ("verify.threads_walked", fl (isum (fun _ r -> r.F.verify_report.stats.threads_walked)), "count");
      ("verify.events", fl events, "count");
      ("verify.events_per_s", ratio (fl events) verify_s, "1/s");
      ("verify.bounds_proved", fl (isum (fun _ r -> r.F.verify_report.stats.bounds_proved)), "count");
      ("verify.bounds_fallback", fl (isum (fun _ r -> r.F.verify_report.stats.bounds_fallback)), "count");
      ("verify.incomplete_reports", fl (isum (fun _ r -> if r.F.verify_report.complete then 0 else 1)), "count");
      ("ddg.build_s", direct_sum "ddg.build_s", "s");
      ("schedflow.analyze_s", direct_sum "schedflow.analyze_s", "s");
      ("absint.lint_s", direct_sum "absint.lint_s", "s");
      ("absint.lint_findings", fl (isum (fun _ r -> List.length r.F.lint_findings)), "count");
      ("cuda.check_s", direct_sum "cuda.check_s", "s");
    ]
  in
  (* which layer the workload isolates: printed, not a metric *)
  let shares =
    [
      ("verify", ratio (first_span [ "verify" ]) first_wall);
      ("search", ratio (first_span [ "search" ]) first_wall);
      ("simulation", ratio (first_span [ "gather"; "fission"; "profile-transformed"; "output-verify" ]) first_wall);
    ]
  in
  (metrics, shares, mismatches)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 42 and t0 = ref nan and do_check = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N config.seed (default 42)");
      ("--t0", Arg.Set_float t0, "EPOCH spawn time of this process");
      ("--check", Arg.Set do_check, " check outputs against the reference interpreter (run mode)");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "bench.exe (setup|run|trace) --workload NAME --seed N --t0 EPOCH";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; known: " ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if not (List.mem !mode [ "setup"; "run"; "trace" ]) then (
    prerr_endline ("unknown mode " ^ !mode);
    exit 2);
  (* setup: programs generated and checked, engine created *)
  let apps = w.apps () in
  List.iter
    (fun (a : Apps.app) ->
      match Kft_cuda.Check.program a.program with
      | [] -> ()
      | errs ->
          prerr_endline (String.concat "\n" (List.map Kft_cuda.Check.pp_error errs));
          exit 2)
    apps;
  let engine = if w.jobs > 0 then Some (Engine.create ~jobs:w.jobs ~memo:true ()) else None in
  let setup_s = now () -. !t0 in
  let out =
    match !mode with
    | "setup" -> [ ("setup_s", Num setup_s) ]
    | "run" ->
        let kept = transform_all w ~seed:!seed ?engine ~traced:false ~keep:(keep ~checked:!do_check) apps in
        let transform_s = List.fold_left (fun acc k -> acc +. k.k_seconds) 0.0 kept in
        (* read before the reference check, which runs every program again *)
        let rss = peak_rss_mb () in
        let cfg = config w ~seed:!seed in
        let rows =
          List.map
            (fun k ->
              let bad = match k.k_programs with Some ps -> check ?engine cfg ps | None -> [] in
              row_json k ~failure:(with_check k.k_failure bad))
            kept
        in
        [
          ("setup_s", Num setup_s);
          ("transform_s", Num transform_s);
          ("peak_rss_mb", Num rss);
          ("transforms", List rows);
        ]
    | _ ->
        let outcomes = transform_all w ~seed:!seed ?engine ~traced:true ~keep:Fun.id apps in
        let traced_s = List.fold_left (fun acc o -> acc +. o.seconds) 0.0 outcomes in
        let pool =
          match engine with
          | Some e ->
              let s = Engine.pool_stats e in
              (s.st_batches, s.st_steals)
          | None -> (0, 0)
        in
        let metrics, shares, mismatches = layer_metrics ?engine ~pool outcomes in
        let rows =
          List.map
            (fun o ->
              let bad = Option.value ~default:[] (List.assoc_opt o.label mismatches) in
              row_json (keep ~checked:false o) ~failure:(with_check (pipeline_failure o) bad))
            outcomes
        in
        [
          ("setup_s", Num setup_s);
          ("traced_transform_s", Num traced_s);
          ("transforms", List rows);
          ("shares", Obj (List.map (fun (n, v) -> (n, Num v)) shares));
          ("metrics", Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) metrics));
        ]
  in
  Option.iter Engine.shutdown engine;
  if Lazy.is_val reference_engine then Engine.shutdown (Lazy.force reference_engine);
  print_endline (to_json (Obj out))
