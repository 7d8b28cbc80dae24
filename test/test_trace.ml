(* kft_trace: span tree semantics, the canonical/side channel split of
   the exporters, the strict JSON checker, and the golden determinism
   property: the machine-JSON trace of a full quickstart transformation
   is byte-identical across --jobs 1 / --jobs 4 and repeated runs. *)

module Trace = Kft_trace.Trace
module Jc = Kft_trace.Json_check
module F = Kft_framework.Framework
module Engine = Kft_engine.Engine

let contains = Util.contains

(* deterministic fake clock: advances 1 ms per reading *)
let ticking_clock () =
  let n = ref 0 in
  fun () ->
    incr n;
    float_of_int !n *. 0.001

let sample_trace () =
  let t = Trace.create ~clock:(ticking_clock ()) "root" in
  let tr = Some t in
  Trace.with_span tr "alpha" (fun () ->
      Trace.add tr "items" 2;
      Trace.add tr "items" 3;
      Trace.set tr "mode" (Trace.Str "fast");
      Trace.with_span tr "inner" (fun () -> Trace.add tr "hits" 1));
  Trace.with_span tr "beta" (fun () ->
      Trace.note tr "jobs" (Trace.Int 4);
      Trace.add tr "items" 5);
  t

let test_span_tree () =
  let t = sample_trace () in
  Alcotest.(check (list string))
    "top-level spans in open order" [ "alpha"; "beta" ]
    (List.map fst (Trace.top_spans t));
  Alcotest.(check (list (pair string int)))
    "bumps merge per key" [ ("items", 5) ]
    (Trace.counters t "alpha");
  Alcotest.(check (list (pair string int)))
    "nested span counters" [ ("hits", 1) ] (Trace.counters t "inner");
  (* [counters] sums over every span with the queried name *)
  let t2 = Trace.create ~clock:(ticking_clock ()) "root" in
  Trace.with_span (Some t2) "dup" (fun () -> Trace.add (Some t2) "n" 2);
  Trace.with_span (Some t2) "dup" (fun () -> Trace.add (Some t2) "n" 3);
  Alcotest.(check (list (pair string int)))
    "summed across same-named spans" [ ("n", 5) ] (Trace.counters t2 "dup")

let test_disabled_recording () =
  (* with [None] every recording call is a no-op and with_span just
     runs the thunk *)
  Alcotest.(check int) "with_span None passes through" 3
    (Trace.with_span None "x" (fun () -> 3));
  Trace.add None "k" 1;
  Trace.set None "k" (Trace.Int 1);
  Trace.note None "k" (Trace.Bool true)

let test_unbalanced_close () =
  (* a span body that raises still closes its span *)
  let t = Trace.create ~clock:(ticking_clock ()) "root" in
  (try Trace.with_span (Some t) "boom" (fun () -> failwith "x") with Failure _ -> ());
  Trace.with_span (Some t) "after" (fun () -> ());
  Alcotest.(check (list string))
    "both spans recorded at top level" [ "boom"; "after" ]
    (List.map fst (Trace.top_spans t))

let test_render_tree () =
  let s = Trace.render_tree (sample_trace ()) in
  Alcotest.(check bool) "root line" true
    (String.length s > 4 && String.sub s 0 4 = "root");
  let has sub = contains s sub in
  Alcotest.(check bool) "alpha branch" true (has "|- alpha");
  Alcotest.(check bool) "inner is last child of alpha" true (has "`- inner");
  Alcotest.(check bool) "beta is last top-level child" true (has "`- beta");
  Alcotest.(check bool) "counters rendered as k=v" true (has "items=5");
  Alcotest.(check bool) "notes rendered as k~v" true (has "jobs~4")

let test_json_channels () =
  let t = sample_trace () in
  let json = Trace.render_json t in
  (match Jc.check json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "render_json invalid: %s" e);
  let has sub = contains json sub in
  Alcotest.(check bool) "counters in canonical channel" true (has "\"items\":5");
  Alcotest.(check bool) "args in canonical channel" true (has "\"mode\":\"fast\"");
  Alcotest.(check bool) "sequence numbers present" true (has "\"seq\":2");
  Alcotest.(check bool) "notes excluded (side channel)" false (has "jobs");
  Alcotest.(check bool) "wall clock excluded" false (has "\"ts\"");
  (* the canonical channel is a pure function of the recording calls:
     re-recording the same structure yields the same bytes even though
     the wall clock readings differ *)
  Alcotest.(check string) "byte-stable across re-recordings" json
    (Trace.render_json (sample_trace ()))

let test_chrome_export () =
  let t = sample_trace () in
  let chrome = Trace.render_chrome t in
  (match Jc.check chrome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "render_chrome invalid: %s" e);
  let has sub = contains chrome sub in
  Alcotest.(check bool) "complete events" true (has "\"ph\":\"X\"");
  Alcotest.(check bool) "microsecond timestamps" true (has "\"ts\":");
  Alcotest.(check bool) "notes included in chrome args" true (has "\"jobs\":4");
  Alcotest.(check bool) "displayTimeUnit header" true (has "\"displayTimeUnit\":\"ms\"")

let test_float_args () =
  let t = Trace.create ~clock:(ticking_clock ()) "root" in
  Trace.with_span (Some t) "s" (fun () ->
      Trace.set (Some t) "f" (Trace.Float 0.1));
  let json = Trace.render_json t in
  let has sub = contains json sub in
  (* %.17g round-trips the double exactly and is quoted so the JSON
     stays parser-proof *)
  Alcotest.(check bool) "17 significant digits, quoted" true
    (has "\"f\":\"0.10000000000000001\"")

(* ------------------------------------------------------------------ *)
(* Json_check                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_check () =
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "valid: %s" s) true (Jc.is_valid s))
    [
      "{}";
      "[]";
      "null";
      "true";
      "-0.5e+10";
      "{\"a\":[1,2.5,{\"b\":null}],\"c\":\"x\\ny\\u00e9\"}";
      " [ 1 , 2 ] ";
    ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "invalid: %s" s) false (Jc.is_valid s))
    [
      "";
      "{";
      "[1,]";
      "{\"a\":01}";
      "{\"a\" 1}";
      "{'a':1}";
      "[1] trailing";
      "\"\\x\"";
      "nul";
      "+1";
      "01.5";
    ]

(* ------------------------------------------------------------------ *)
(* Golden: quickstart pipeline trace                                   *)
(* ------------------------------------------------------------------ *)

let traced_quickstart ~jobs =
  let trace = Trace.create "kft-transform" in
  let config =
    {
      F.default_config with
      (* the default private cache per transform: the hit/miss counters
         in the trace depend only on the program, not on what else ran
         in this test binary *)
      gga_params = { Kft_gga.Gga.default_params with generations = 5; population = 10 };
    }
  in
  let report =
    Engine.with_engine ~jobs ~memo:true (fun engine ->
        F.transform ~config ~engine ~trace (Kft_apps.Apps.quickstart ()).program)
  in
  (trace, report)

let stage_names =
  [
    "gather"; "ddg"; "schedflow"; "filter"; "fission"; "search"; "codegen"; "verify";
    "profile-transformed"; "output-verify"; "lint";
  ]

let test_golden_stage_tree () =
  let trace, report = traced_quickstart ~jobs:1 in
  Alcotest.(check (list string))
    "pinned stage span tree" stage_names
    (List.map fst (Trace.top_spans trace));
  Alcotest.(check (list (pair string int)))
    "pinned gather counters" [ ("kernels", 3) ] (Trace.counters trace "gather");
  Alcotest.(check (list (pair string int)))
    "pinned ddg counters"
    [ ("ddg_nodes", 7); ("ddg_edges", 7); ("oeg_nodes", 3); ("oeg_edges", 2) ]
    (Trace.counters trace "ddg");
  Alcotest.(check (list (pair string int)))
    "pinned schedflow counters"
    [
      ("ops", 3); ("launches", 3); ("deps", 2); ("deps_refined", 0);
      ("regions_proved", 7); ("regions_fallback", 0); ("issues", 0);
    ]
    (Trace.counters trace "schedflow");
  Alcotest.(check (list (pair string int)))
    "pinned filter counters" [ ("invocations", 3); ("targets", 3) ]
    (Trace.counters trace "filter");
  Alcotest.(check (list (pair string int)))
    "pinned diffuse launch counters"
    [ ("blocks", 8); ("threads", 1024); ("read_bytes", 486080); ("write_bytes", 69440) ]
    (Trace.counters trace "launch:diffuse");
  (* root-span counters: profile-cache and launch-memo attribution plus
     what the whole transform allocated: no arena, one private copy per
     array a missed launch may write. Requests/cells are a pure
     function of the simulation call sequence, so exact values are a
     golden surface (the process-wide high-water mark lives in the note
     side channel, excluded from canonical output). Output
     verification compares the two runs the transform already holds, so
     it neither hits the cache nor copies; the fused program's one
     launch and the source's three all miss the memo. *)
  Alcotest.(check (list (pair string int)))
    "pinned root counters"
    [
      ("sim_cache_hits", 0); ("sim_cache_misses", 2); ("launch_memo_hits", 0);
      ("launch_memo_misses", 4); ("pool_requests", 6); ("pool_cells", 73728);
    ]
    (Trace.counters trace "kft-transform");
  (* the stage report renders the tree when the report carries a trace *)
  Alcotest.(check bool) "report echoes the trace" true
    (match report.F.trace with Some t -> t == trace | None -> false);
  let sr = F.stage_report report in
  Alcotest.(check bool) "stage report has a trace section" true
    (contains sr "== trace ==")

let test_golden_byte_stability () =
  let j1, _ = traced_quickstart ~jobs:1 in
  let j1', _ = traced_quickstart ~jobs:1 in
  let j4, _ = traced_quickstart ~jobs:4 in
  let a = Trace.render_json j1 in
  (match Jc.check a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pipeline trace invalid JSON: %s" e);
  Alcotest.(check string) "byte-identical across two runs" a (Trace.render_json j1');
  Alcotest.(check string) "byte-identical across --jobs 1/4" a (Trace.render_json j4);
  (match Jc.check (Trace.render_chrome j4) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome trace invalid JSON: %s" e)

let suite =
  [
    Alcotest.test_case "span tree and counters" `Quick test_span_tree;
    Alcotest.test_case "disabled tracing is a no-op" `Quick test_disabled_recording;
    Alcotest.test_case "raising span body still closes" `Quick test_unbalanced_close;
    Alcotest.test_case "human tree rendering" `Quick test_render_tree;
    Alcotest.test_case "JSON canonical channel" `Quick test_json_channels;
    Alcotest.test_case "chrome trace_event export" `Quick test_chrome_export;
    Alcotest.test_case "float args are exact" `Quick test_float_args;
    Alcotest.test_case "strict JSON checker" `Quick test_json_check;
  ]

let golden_suite =
  [
    Alcotest.test_case "quickstart stage tree and counters" `Quick test_golden_stage_tree;
    Alcotest.test_case "quickstart trace byte-stability" `Slow test_golden_byte_stability;
  ]
