(* CI sweep behind the [verify] dune alias (`dune build @verify`).

   Every program — the quickstart chain and the six bundled evaluation
   applications — goes through the full pipeline three times under one
   config (small GGA budget, fatal verification gate): twice at jobs 1
   and once at jobs 4. The first report feeds the static checks, the
   three traces and stage reports the determinism checks. It fails on

   - verify: any kft_verify diagnostic on the source or the transformed
     program (a launch whose bounds or race freedom the provers leave
     open is itself a diagnostic), any rejected group, or a failed
     output verification;
   - schedflow: any dataflow issue (read-before-write, dead store) or
     warning finding on the source or the transformed program, any
     Schedule-pass diagnostic, or incomplete schedule-DDG coverage (no
     source dependence checked end to end, or an unplaced launch);
   - replay: a transformed run (profiled through the launch memo, where
     unchanged and block-retuned launches replay earlier entries) whose
     stats or memory differ from a fresh simulation without a cache;
   - trace: a machine-JSON trace that is not valid JSON, or that differs
     between the two jobs-1 runs or between jobs 1 and jobs 4 (the
     canonical-channel contract of Kft_trace.Trace: sequence numbers and
     counters only, wall clock and scheduling shape on the side channel);
   - report: a stage report that differs between those runs, up to its
     trace tree and apart from the engine line (jobs width, wall time).

   Usage: sweep [smoke]   -- smoke sweeps the quickstart only (runtest) *)

module F = Kft_framework.Framework
module V = Kft_verify.Verify
module Sf = Kft_schedflow.Schedflow
module L = Kft_absint.Lint
module Trace = Kft_trace.Trace
module Apps = Kft_apps.Apps

let failures = ref 0

(* one result line; a failed check adds its details below it *)
let line what check status fmt =
  Printf.ksprintf (fun detail -> Printf.printf "%-26s %-10s %-8s %s\n%!" what check status detail) fmt

let verdict ok = if ok then "clean" else "DEFECTS"

let fail lines =
  incr failures;
  List.iter (Printf.printf "    %s\n") lines

let check_verify what (r : V.report) =
  let s = r.stats in
  let ok = V.is_clean r in
  line what "verify"
    (if ok || (s.bounds_fallback = 0 && s.races_fallback = 0) then verdict ok else "UNPROVED")
    "%d launches, %d/%d bounds proved, %d/%d races proved" s.launches_checked s.bounds_proved
    (s.bounds_proved + s.bounds_fallback)
    s.races_proved
    (s.races_proved + s.races_fallback);
  if not ok then fail (List.map V.pp_diagnostic r.diagnostics)

let check_outcome what (rep : F.report) =
  let problems =
    List.map (fun (k, why) -> Printf.sprintf "rejected %s: %s" k why) rep.rejected_groups
    @
    match rep.verified with
    | Ok () -> []
    | Error diffs ->
        [ "simulator verification failed on " ^ String.concat "," (List.map fst diffs) ]
  in
  line what "outcome" (verdict (problems = [])) "%d rejected groups, output %s"
    (List.length rep.rejected_groups)
    (if rep.verified = Ok () then "verified" else "differs");
  if problems <> [] then fail problems

let config =
  {
    F.default_config with
    verify_mode = F.Verify_fatal;
    gga_params = { Kft_gga.Gga.default_params with population = 12; generations = 10 };
  }

let check_replay what (rep : F.report) =
  let module P = Kft_sim.Profiler in
  let fresh = P.profile ~backend:config.backend ~seed:config.seed config.device rep.transformed in
  let stats (r : P.run) = List.map (fun (p : P.kernel_profile) -> p.stats) r.profiles in
  let ok =
    stats fresh = stats rep.transformed_run
    && Kft_sim.Memory.bits_equal fresh.memory rep.transformed_run.memory
  in
  Kft_sim.Memory.release fresh.memory;
  line what "replay" (verdict ok) "%d memo hits, %d misses; stats and memory %s a fresh run's"
    rep.launch_memo_stats.launch_hits rep.launch_memo_stats.launch_misses
    (if ok then "equal" else "differ from");
  if not ok then fail [ "the transformed run differs from a fresh simulation" ]

let check_schedflow what prog =
  let sf = Sf.analyze prog in
  let findings = Sf.lint sf in
  let warns = List.filter (fun (f : L.finding) -> f.f_severity = L.Warn) findings in
  let s = sf.Sf.stats in
  let ok = sf.Sf.issues = [] && warns = [] in
  line what "schedflow" (verdict ok)
    "%d ops, %d deps, %d refined, %d/%d regions proved, %d issues, %d warnings, %d notes"
    s.Sf.st_ops s.st_deps s.st_deps_refined s.st_regions_proved
    (s.st_regions_proved + s.st_regions_fallback)
    (List.length sf.Sf.issues) (List.length warns) (L.infos findings);
  if not ok then fail (List.map Sf.pp_issue sf.Sf.issues @ List.map L.render warns)

let check_schedule_pass what (r : V.report) =
  let sched = List.filter (fun (d : V.diagnostic) -> d.d_pass = V.Schedule) r.diagnostics in
  let covered = r.stats.sched_deps_checked > 0 && r.stats.sched_fallback = 0 in
  line what "schedule" (verdict (sched = [] && covered))
    "%d deps checked end-to-end, %d unplaced, %d diagnostics" r.stats.sched_deps_checked
    r.stats.sched_fallback (List.length sched);
  if not (sched = [] && covered) then
    fail
      (List.map V.pp_diagnostic sched
      @
      if covered then []
      else [ "(incomplete schedule-DDG coverage: a launch could not be placed)" ])

(* [check]'s texts of the three runs (jobs 1, 1, 4) must be equal; a
   failed check's line names what differed *)
let check_same what check ~invalid (x1, x1', x4) =
  let problems =
    invalid
    @ (if x1 <> x1' then [ "differs between two identical runs" ] else [])
    @ if x1 <> x4 then [ "differs between --jobs 1 and --jobs 4" ] else []
  in
  line what check (verdict (problems = [])) "%d bytes, %s" (String.length x1)
    (if problems = [] then "identical across runs and jobs {1,1,4}"
     else String.concat "; " problems);
  if problems <> [] then fail []

let check_traces what ((j1, _, _) as runs) =
  check_same what "trace" runs
    ~invalid:
      (match Kft_trace.Json_check.check j1 with
      | Ok () -> []
      | Error e -> [ "trace is not valid JSON: " ^ e ])

(* the stage report up to its trace tree, without the engine line: it
   carries the jobs width and the search's wall time *)
let report_text rep =
  let rec upto = function
    | [] | "== trace ==" :: _ -> []
    | l :: rest when String.starts_with ~prefix:"  engine: " l -> upto rest
    | l :: rest -> l :: upto rest
  in
  String.concat "\n" (upto (String.split_on_char '\n' (F.stage_report rep)))

let transform ~jobs prog =
  let trace = Trace.create "kft-transform" in
  let rep =
    Kft_engine.Engine.with_engine ~jobs ~memo:true (fun engine ->
        F.transform ~config ~engine ~trace prog)
  in
  (rep, Trace.render_json trace, report_text rep)

let sweep (a : Apps.app) =
  let source = a.app_name ^ " (source)" and transformed = a.app_name ^ " (transformed)" in
  check_verify source (V.verify_program a.program);
  check_schedflow source a.program;
  let rep, j1, r1 = transform ~jobs:1 a.program in
  let _, j1', r1' = transform ~jobs:1 a.program in
  let _, j4, r4 = transform ~jobs:4 a.program in
  check_verify transformed rep.verify_report;
  check_outcome transformed rep;
  check_replay transformed rep;
  check_schedflow transformed rep.transformed;
  check_schedule_pass transformed rep.verify_report;
  check_traces transformed (j1, j1', j4);
  check_same transformed "report" ~invalid:[] (r1, r1', r4)

let () =
  let smoke = Array.length Sys.argv > 1 && Sys.argv.(1) = "smoke" in
  List.iter sweep (if smoke then [ Apps.quickstart () ] else Apps.quickstart () :: Apps.all ());
  if !failures > 0 then begin
    Printf.printf "sweep: %d failures\n" !failures;
    exit 1
  end
  else print_endline "sweep: all clean"
