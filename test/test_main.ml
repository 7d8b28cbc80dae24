(* Test runner, plus the CLI smoke suite.

   The CLI tests evaluate the production cmdliner terms of bin/kft and
   bin/kft-transform in-process ([Kft_cli.Cli.*_main ~argv]) with
   stdout/stderr captured, covering the success paths (--trace,
   --verify, lint --json) and the error paths (unknown programs, bad
   flags) without depending on installed executables. *)

module Cli = Kft_cli.Cli
module Jc = Kft_trace.Json_check

let kft argv = Util.capture_output (fun () -> Cli.kft_main ~argv ())
let transform argv = Util.capture_output (fun () -> Cli.transform_main ~argv ())

let check_valid_json what s =
  match Jc.check s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" what e

let with_tmp_files n f =
  let files = List.init n (fun _ -> Filename.temp_file "kft_cli" ".json") in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files)
    (fun () -> f files)

(* ---------------- kft lint ---------------- *)

let test_lint_json () =
  let rc, out, _ =
    kft [| "kft"; "lint"; "--json"; "--no-profile"; "-a"; "quickstart" |]
  in
  Alcotest.(check bool) "exits 0 (clean) or 1 (warnings)" true (rc = 0 || rc = 1);
  check_valid_json "lint --json output" out;
  Alcotest.(check bool) "report header" true (Util.contains out "\"tool\":\"kft-lint\"")

let test_lint_human () =
  let rc, out, _ = kft [| "kft"; "lint"; "--no-profile"; "-a"; "quickstart" |] in
  Alcotest.(check bool) "exits 0 or 1" true (rc = 0 || rc = 1);
  Alcotest.(check bool) "summary line" true (Util.contains out "kft lint:")

let test_lint_unknown_program () =
  let rc, _, err = kft [| "kft"; "lint"; "-a"; "nope" |] in
  Alcotest.(check int) "exit code 2" 2 rc;
  Alcotest.(check bool) "names the unknown program" true
    (Util.contains err "unknown program")

let test_lint_bad_flag () =
  let rc, _, err = kft [| "kft"; "lint"; "--definitely-not-a-flag" |] in
  Alcotest.(check int) "cmdliner cli error" 124 rc;
  Alcotest.(check bool) "usage message on stderr" true (String.length err > 0)

let test_lint_unknown_subcommand () =
  let rc, _, _ = kft [| "kft"; "frobnicate" |] in
  Alcotest.(check int) "cmdliner cli error" 124 rc

(* all seven programs, so -j 4 really fans out over worker domains *)
let bundled_programs () =
  List.map
    (fun (a : Kft_apps.Apps.app) -> a.program)
    (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ())

(* the summary keeps the full report's counts and exit code in one
   line per program, and prints warnings (only) in full *)
let test_lint_summary () =
  let module L = Kft_absint.Lint in
  let rc_full, full, _ = kft [| "kft"; "lint"; "--no-profile" |] in
  let rc, out, _ = kft [| "kft"; "lint"; "--summary"; "--no-profile" |] in
  Alcotest.(check int) "same exit code" rc_full rc;
  let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let last l = List.nth l (List.length l - 1) in
  Alcotest.(check string) "same summary line" (last (lines full)) (last (lines out));
  let names = List.map (fun (p : Kft_cuda.Ast.program) -> p.p_name) (bundled_programs ()) in
  let count prog sev =
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:(prog ^ ":") l && Util.contains l (": " ^ sev ^ " ["))
         (lines full))
  in
  let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s") in
  let expected =
    List.map
      (fun p ->
        Printf.sprintf "%s: %s, %s" p (plural (count p "warning") "warning")
          (plural (count p "info") "advisory note"))
      names
  in
  let warning_lines = List.filter (fun l -> Util.contains l ": warning [") (lines full) in
  Alcotest.(check (list string)) "one line per program, then the warnings"
    (expected @ warning_lines @ [ last (lines full) ])
    (lines out);
  (* a warning is printed in full, a note only counted *)
  let finding sev rule =
    {
      L.f_program = "p";
      f_kernel = "k";
      f_loc = { Kft_cuda.Loc.line = 3; col = 5 };
      f_rule = rule;
      f_severity = sev;
      f_message = "m";
    }
  in
  let fs = L.normalize [ finding L.Warn "bounds"; finding L.Info "dead-guard" ] in
  Alcotest.(check string) "rendered summary"
    ("p: 1 warning, 1 advisory note\n" ^ "p:k:3:5: warning [bounds] m\n"
   ^ "kft lint: 1 warning, 1 advisory note\n")
    (L.render_summary [ "p" ] fs)

let test_lint_trace () =
  with_tmp_files 3 @@ fun files ->
  let f1, f2, f4 = match files with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  let run file jobs =
    let rc, out, _ =
      kft [| "kft"; "lint"; "--json"; "--no-profile"; "-j"; string_of_int jobs; "--trace"; file |]
    in
    Alcotest.(check bool) "lint with --trace succeeds" true (rc = 0 || rc = 1);
    out
  in
  let o1 = run f1 1 in
  let o1' = run f2 1 in
  let o4 = run f4 4 in
  let module L = Kft_absint.Lint in
  Alcotest.(check string) "report is the sequential library lint"
    (L.render_json (L.normalize (List.concat_map L.program (bundled_programs ()))))
    o1;
  Alcotest.(check string) "report byte-identical across two runs" o1 o1';
  Alcotest.(check string) "report byte-identical across --jobs 1/4" o1 o4;
  let t1 = Util.read_file f1 in
  check_valid_json "lint trace" t1;
  Alcotest.(check bool) "trace header" true (Util.contains t1 "\"tool\":\"kft-trace\"");
  Alcotest.(check bool) "per-program spans" true
    (Util.contains t1 "lint:quickstart" && Util.contains t1 "lint:SCALE-LES");
  Alcotest.(check string) "byte-identical across two runs" t1 (Util.read_file f2);
  Alcotest.(check string) "byte-identical across --jobs 1/4" t1 (Util.read_file f4)

(* ---------------- kft schedflow ---------------- *)

let test_schedflow_json () =
  let rc, out, _ = kft [| "kft"; "schedflow"; "--json"; "-a"; "quickstart" |] in
  Alcotest.(check int) "quickstart analysis is clean" 0 rc;
  check_valid_json "schedflow --json output" out;
  Alcotest.(check bool) "report header" true
    (Util.contains out "\"tool\":\"kft-schedflow\"")

let test_schedflow_human () =
  let rc, out, _ = kft [| "kft"; "schedflow"; "-a"; "quickstart" |] in
  Alcotest.(check int) "exit 0" 0 rc;
  Alcotest.(check bool) "liveness table" true (Util.contains out "liveness:");
  Alcotest.(check bool) "schedule deps" true (Util.contains out "raw")

let test_schedflow_unknown_program () =
  let rc, _, err = kft [| "kft"; "schedflow"; "-a"; "nope" |] in
  Alcotest.(check int) "exit code 2" 2 rc;
  Alcotest.(check bool) "names the unknown program" true
    (Util.contains err "unknown program")

let test_schedflow_jobs_identical () =
  with_tmp_files 2 @@ fun files ->
  let f1, f4 = match files with [ a; b ] -> (a, b) | _ -> assert false in
  let run file jobs =
    let rc, out, _ =
      kft [| "kft"; "schedflow"; "--json"; "-j"; string_of_int jobs; "--trace"; file |]
    in
    Alcotest.(check int) "clean exit" 0 rc;
    out
  in
  let o1 = run f1 1 in
  let o4 = run f4 4 in
  let module Sf = Kft_schedflow.Schedflow in
  Alcotest.(check string) "report is the sequential library analysis"
    (Sf.render_json (List.map Sf.analyze (bundled_programs ())))
    o1;
  Alcotest.(check string) "report byte-identical across --jobs 1/4" o1 o4;
  let t1 = Util.read_file f1 in
  check_valid_json "schedflow trace" t1;
  Alcotest.(check bool) "per-program spans" true
    (Util.contains t1 "schedflow:quickstart" && Util.contains t1 "schedflow:SCALE-LES");
  Alcotest.(check string) "trace byte-identical across --jobs 1/4" t1 (Util.read_file f4)

(* ---------------- kft-transform ---------------- *)

(* a small, fast transformation *)
let quickstart_args rest =
  Array.append
    [| "kft-transform"; "-a"; "quickstart"; "--generations"; "2"; "--population"; "6" |]
    rest

let test_transform_list () =
  let rc, out, _ = transform [| "kft-transform"; "--list" |] in
  Alcotest.(check int) "exit 0" 0 rc;
  Alcotest.(check bool) "lists quickstart" true (Util.contains out "quickstart");
  Alcotest.(check bool) "lists the bundled apps" true (Util.contains out "MITgcm")

let test_transform_unknown_app () =
  let rc, _, err = transform [| "kft-transform"; "-a"; "nope" |] in
  Alcotest.(check bool) "non-zero exit" true (rc <> 0);
  Alcotest.(check bool) "names the unknown application" true
    (Util.contains err "unknown application")

let test_transform_bad_flag () =
  let rc, _, _ = transform [| "kft-transform"; "--definitely-not-a-flag" |] in
  Alcotest.(check int) "cmdliner cli error" 124 rc

let test_transform_bad_flag_value () =
  let rc, _, _ = transform (quickstart_args [| "--generations"; "many" |]) in
  Alcotest.(check int) "non-integer flag value" 124 rc

(* a value outside an option's table or range is a command-line error
   naming the option, never a silent fallback to some default mode. The
   value is passed as [--option=value], so a negative one is not read
   as an option of its own, and alone, since an option may not repeat. *)
let check_bad_values option values =
  List.iter
    (fun v ->
      let rc, _, err = transform [| "kft-transform"; "-a"; "quickstart"; "-q"; option ^ "=" ^ v |] in
      Alcotest.(check int) (v ^ ": command-line error") 124 rc;
      Alcotest.(check bool) (v ^ ": names " ^ option) true
        (Util.contains err (Printf.sprintf "option '%s': invalid value '%s'" option v)))
    values

(* only the two execution paths are valid backend names *)
let test_transform_unknown_backend () = check_bad_values "--backend" [ "vector"; "auto" ]
let test_transform_bad_filter () = check_bad_values "--filter" [ "manul" ]
let test_transform_bad_verify () = check_bad_values "--verify" [ "fatl" ]

(* the search needs at least one genome and cannot run backwards *)
let test_transform_bad_search_size () =
  check_bad_values "--population" [ "0"; "-2" ];
  check_bad_values "--generations" [ "-3" ]

let test_transform_report () =
  let rc, out, _ = transform (quickstart_args [||]) in
  Alcotest.(check int) "exit 0" 0 rc;
  Alcotest.(check bool) "stage report" true (Util.contains out "== stage 1");
  Alcotest.(check bool) "result line" true (Util.contains out "speedup");
  Alcotest.(check bool) "no trace section without --trace" false
    (Util.contains out "== trace ==")

let test_transform_traced () =
  with_tmp_files 4 @@ fun files ->
  let f1, f2, f4, chrome =
    match files with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
  in
  let rc, out, _ =
    transform (quickstart_args [| "--trace"; f1; "--trace-chrome"; chrome |])
  in
  Alcotest.(check int) "exit 0" 0 rc;
  Alcotest.(check bool) "stage report includes the trace tree" true
    (Util.contains out "== trace ==");
  let rc2, _, _ = transform (quickstart_args [| "-q"; "--trace"; f2 |]) in
  let rc4, _, _ = transform (quickstart_args [| "-q"; "-j"; "4"; "--trace"; f4 |]) in
  Alcotest.(check int) "second run exit 0" 0 rc2;
  Alcotest.(check int) "jobs 4 run exit 0" 0 rc4;
  let t1 = Util.read_file f1 in
  check_valid_json "pipeline trace" t1;
  Alcotest.(check bool) "stage spans present" true (Util.contains t1 "\"name\":\"search\"");
  Alcotest.(check string) "byte-identical across two runs" t1 (Util.read_file f2);
  Alcotest.(check string) "byte-identical across --jobs 1/4" t1 (Util.read_file f4);
  let c = Util.read_file chrome in
  check_valid_json "chrome trace" c;
  Alcotest.(check bool) "trace_event stream" true (Util.contains c "\"traceEvents\"");
  Alcotest.(check bool) "complete events with durations" true
    (Util.contains c "\"ph\":\"X\"")

(* each transform simulates on its own cache, so a repeated run in the
   same process re-simulates instead of replaying the first: the trace's
   cache counters, and so its bytes, depend only on the arguments *)
let test_transform_trace_in_process () =
  with_tmp_files 2 @@ fun files ->
  let f1, f2 = match files with [ a; b ] -> (a, b) | _ -> assert false in
  let run file =
    let rc, _, _ = transform (quickstart_args [| "-q"; "--seed"; "7"; "--trace"; file |]) in
    Alcotest.(check int) "exit 0" 0 rc;
    Util.read_file file
  in
  let t1 = run f1 in
  Alcotest.(check string) "second in-process run writes the same trace" t1 (run f2)

let test_transform_verify_modes () =
  let rc_off, _, _ = transform (quickstart_args [| "-q"; "--verify"; "off" |]) in
  Alcotest.(check int) "--verify off passes" 0 rc_off;
  (* the quickstart fusion is clean, so the fatal gate passes too *)
  let rc_fatal, _, _ = transform (quickstart_args [| "-q"; "--verify"; "fatal" |]) in
  Alcotest.(check int) "--verify fatal passes on a clean program" 0 rc_fatal

let cli_suite =
  [
    Alcotest.test_case "lint --json emits valid JSON" `Quick test_lint_json;
    Alcotest.test_case "lint human report" `Quick test_lint_human;
    Alcotest.test_case "lint --summary: one line per program" `Quick test_lint_summary;
    Alcotest.test_case "lint unknown program exits 2" `Quick test_lint_unknown_program;
    Alcotest.test_case "lint bad flag exits 124" `Quick test_lint_bad_flag;
    Alcotest.test_case "unknown subcommand exits 124" `Quick test_lint_unknown_subcommand;
    Alcotest.test_case "lint --trace is deterministic" `Quick test_lint_trace;
    Alcotest.test_case "schedflow --json emits valid JSON" `Quick test_schedflow_json;
    Alcotest.test_case "schedflow human report" `Quick test_schedflow_human;
    Alcotest.test_case "schedflow unknown program exits 2" `Quick
      test_schedflow_unknown_program;
    Alcotest.test_case "schedflow identical across jobs" `Quick test_schedflow_jobs_identical;
    Alcotest.test_case "transform --list" `Quick test_transform_list;
    Alcotest.test_case "transform unknown app fails" `Quick test_transform_unknown_app;
    Alcotest.test_case "transform bad flag exits 124" `Quick test_transform_bad_flag;
    Alcotest.test_case "transform bad flag value exits 124" `Quick
      test_transform_bad_flag_value;
    Alcotest.test_case "transform unknown backend exits 124" `Quick
      test_transform_unknown_backend;
    Alcotest.test_case "transform bad --filter exits 124" `Quick test_transform_bad_filter;
    Alcotest.test_case "transform bad --verify exits 124" `Quick test_transform_bad_verify;
    Alcotest.test_case "transform bad --population/--generations exits 124" `Quick
      test_transform_bad_search_size;
    Alcotest.test_case "transform stage report" `Slow test_transform_report;
    Alcotest.test_case "transform --trace/--trace-chrome deterministic" `Slow
      test_transform_traced;
    Alcotest.test_case "transform --trace identical in-process" `Slow
      test_transform_trace_in_process;
    Alcotest.test_case "transform --verify off/fatal" `Slow test_transform_verify_modes;
  ]

let () =
  Alcotest.run "kft"
    [
      ("graph", Test_graph.suite);
      ("device", Test_device.suite);
      ("cuda", Test_cuda.suite @ Test_cuda.checker_suite);
      ("analysis", Test_analysis.suite);
      ( "sim",
        Test_sim.suite @ Test_sim.usage_suite @ Test_sim.semantics_suite @ Test_sim.parallel_suite
        @ Test_sim.fast_path_suite );
      ("metadata", Test_metadata.suite);
      ("ddg", Test_ddg.suite);
      ("fission", Test_fission.suite);
      ("perfmodel", Test_perfmodel.suite @ Test_perfmodel.alt_suite);
      ("gga", Test_gga.suite);
      ("gga-properties", Test_gga.property_suite);
      ("engine", Test_engine.suite);
      ("codegen", Test_codegen.suite @ Test_codegen.extra_suite);
      ("framework", Test_framework.suite @ Test_framework.validation_suite);
      ("apps", Test_apps.suite);
      ("end-to-end", Test_endtoend.suite);
      ("golden", Test_golden.suite);
      ("verify", Test_verify.suite @ Test_verify.roundtrip_suite);
      ("defects", Test_defects.suite);
      ("absint", Test_absint.suite);
      ("schedflow", Test_schedflow.suite);
      ("trace", Test_trace.suite);
      ("trace-golden", Test_trace.golden_suite);
      ("fuzz", Test_fuzz.suite);
      ("cli", cli_suite);
    ]
