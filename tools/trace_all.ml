(* Golden-trace determinism gate (the @trace alias).

   For every program it transforms — the quickstart chain and, in full
   mode, the six bundled applications — the machine-JSON trace of the
   pipeline must be

   - syntactically valid JSON (Json_check, strict RFC 8259),
   - byte-identical across two consecutive runs, and
   - byte-identical between --jobs 1 and --jobs 4,

   which is the canonical-channel contract of Kft_trace.Trace: logical
   sequence numbers and counters only, wall clock and scheduling shape
   confined to the side channel. Every transform simulates on a cache of
   its own (the default), so the hit/miss counters in the trace depend
   only on the program, never on what ran earlier in the process.

   Usage: trace_all [smoke]   -- smoke checks quickstart only (runtest) *)

module F = Kft_framework.Framework
module Trace = Kft_trace.Trace
module Engine = Kft_engine.Engine
module Apps = Kft_apps.Apps

let traced ~jobs (p : Kft_cuda.Ast.program) =
  let trace = Trace.create "kft-transform" in
  let config =
    {
      F.default_config with
      gga_params = { Kft_gga.Gga.default_params with generations = 5; population = 10 };
    }
  in
  let (_ : F.report) =
    Engine.with_engine ~jobs ~memo:true (fun engine ->
        F.transform ~config ~engine ~trace p)
  in
  Trace.render_json trace

let failures = ref 0

let check (a : Apps.app) =
  let name = a.program.Kft_cuda.Ast.p_name in
  let j1 = traced ~jobs:1 a.program in
  let j1' = traced ~jobs:1 a.program in
  let j4 = traced ~jobs:4 a.program in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failures;
        Printf.eprintf "[trace] %s: %s\n%!" name msg)
      fmt
  in
  (match Kft_trace.Json_check.check j1 with
  | Ok () -> ()
  | Error e -> fail "trace is not valid JSON: %s" e);
  if j1 <> j1' then fail "trace differs between two identical runs";
  if j1 <> j4 then fail "trace differs between --jobs 1 and --jobs 4";
  if j1 = j1' && j1 = j4 then
    Printf.printf "  %-12s ok: %5d bytes, identical across runs and jobs {1,4}\n%!" name
      (String.length j1)

let () =
  let smoke = Array.length Sys.argv > 1 && Sys.argv.(1) = "smoke" in
  print_endline "== golden trace: byte-stability of the machine-JSON pipeline trace ==";
  let apps = if smoke then [ Apps.quickstart () ] else Apps.quickstart () :: Apps.all () in
  List.iter check apps;
  if !failures > 0 then begin
    Printf.eprintf "[trace] %d check(s) failed\n%!" !failures;
    exit 1
  end
