(* CI driver behind the [lint] dune alias (`dune build @lint`): runs
   [kft lint] (the kft_absint rule set) over the quickstart example and
   the six bundled evaluation applications with warnings as errors.

   Every program is profiled once first so the footprint-drift rule can
   cross-check the static traffic estimates against the simulator's
   measured counters.  Advisory (info) findings are counted but do not
   fail the alias; any warning does.

   Exit codes distinguish what failed: 0 all clean, 1 at least one
   warning finding, 3 the analyzer itself crashed on some program (an
   internal error, not a lint result) -- so CI can tell "the code has
   diagnosable problems" from "the analyzer needs fixing".

   `lint_all smoke` restricts the sweep to the quickstart program; the
   test suite uses it as a cheap guard inside `dune runtest`. *)

module L = Kft_absint.Lint

let () =
  let smoke = Array.length Sys.argv > 1 && Sys.argv.(1) = "smoke" in
  let apps =
    if smoke then [ Kft_apps.Apps.quickstart () ]
    else Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ()
  in
  let device = Kft_device.Device.k20x in
  let failures = ref 0 in
  let crashes = ref 0 in
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      match
        L.program
          ~measured:Kft_sim.Profiler.(traffic_by_kernel (profile device a.program))
          a.program
      with
      | fs ->
          let w = L.warnings fs in
          Printf.printf "%-28s %s  (%d warnings, %d advisory notes)\n"
            a.program.Kft_cuda.Ast.p_name
            (if w = 0 then "clean" else "WARNINGS")
            w (L.infos fs);
          if w > 0 then begin
            incr failures;
            List.iter
              (fun (f : L.finding) ->
                if f.f_severity = L.Warn then Printf.printf "    %s\n" (L.render f))
              fs
          end
      | exception e ->
          (* an analyzer crash is an internal error, not a lint finding:
             report it distinctly and keep sweeping the other programs *)
          incr crashes;
          Printf.printf "%-28s ANALYZER ERROR  (%s)\n" a.program.Kft_cuda.Ast.p_name
            (Printexc.to_string e))
    apps;
  if !crashes > 0 then begin
    Printf.printf "lint: analyzer failed on %d programs\n" !crashes;
    exit 3
  end
  else if !failures > 0 then begin
    Printf.printf "lint: %d programs with warnings\n" !failures;
    exit 1
  end
  else print_endline "lint: all clean"
