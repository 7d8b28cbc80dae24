(* kft_schedflow: whole-schedule dataflow, liveness, schedule DDG,
   dataflow issues, the three schedule-level lint rules, the
   liveness-driven arena overlay, and the byte-stable JSON report.

   Also hosts the regression test for the [Verify.merge] dedupe fix:
   diagnostics differing only in the array they are about must both
   survive a merge. *)

open Kft_cuda.Ast
module Sf = Kft_schedflow.Schedflow
module L = Kft_absint.Lint
module V = Kft_verify.Verify

let n = 64

let arrays names = List.map (fun a -> { a_name = a; a_elem_ty = Double; a_dims = [ n ] }) names

(* 1-D kernels over the full extent: every access is proved by absint *)
let kernels_src =
  {|
__global__ void wx(const double *A, double *X, int m) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) X[i] = A[i] + 1.0;
}
__global__ void rx(const double *X, double *B, int m) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) B[i] = X[i] * 2.0;
}
__global__ void copyk(const double *S, double *D, int m) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) D[i] = S[i];
}
__global__ void bump(double *T, int m) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) T[i] = T[i] + 1.0;
}
|}

let kernels = Kft_cuda.Parse.kernels kernels_src

let launch kernel args =
  Launch
    {
      l_kernel = kernel;
      l_domain = (n, 1, 1);
      l_block = (32, 1, 1);
      l_args = List.map (fun a -> Arg_array a) args @ [ Arg_int n ];
    }

let program name arrs schedule =
  { p_name = name; p_arrays = arrays arrs; p_kernels = kernels; p_schedule = schedule }

let find_array_info t name =
  List.find (fun (a : Sf.array_info) -> a.ai_name = name) t.Sf.arrays

(* ------------------------------------------------------------------ *)
(* degenerate schedules                                                *)
(* ------------------------------------------------------------------ *)

let test_empty_schedule () =
  let t = Sf.analyze (program "empty" [ "A"; "B" ] []) in
  Alcotest.(check int) "no ops" 0 t.Sf.stats.st_ops;
  Alcotest.(check int) "no deps" 0 t.stats.st_deps;
  Alcotest.(check int) "no issues" 0 (List.length t.Sf.issues);
  Alcotest.(check int) "both arrays described" 2 t.stats.st_arrays;
  Alcotest.(check bool) "never accessed" true
    (List.for_all (fun (a : Sf.array_info) -> a.ai_first = None && a.ai_last = None) t.Sf.arrays);
  Alcotest.(check (option (pair int int))) "no live interval" None (Sf.live_interval t "A");
  Alcotest.(check (option (pair int int))) "undeclared array" None (Sf.live_interval t "Z")

let test_single_launch () =
  let t = Sf.analyze (program "single" [ "A"; "X" ] [ launch "wx" [ "A"; "X" ] ]) in
  Alcotest.(check int) "one op" 1 t.Sf.stats.st_ops;
  Alcotest.(check int) "one launch" 1 t.stats.st_launches;
  Alcotest.(check int) "no deps" 0 t.stats.st_deps;
  Alcotest.(check int) "no issues (no copies: everything is input+output)" 0
    (List.length t.Sf.issues);
  Alcotest.(check (option (pair int int))) "A live at op 0" (Some (0, 0)) (Sf.live_interval t "A");
  Alcotest.(check (option (pair int int))) "X live at op 0" (Some (0, 0)) (Sf.live_interval t "X");
  Alcotest.(check bool) "every region proved" true
    (t.stats.st_regions_proved > 0 && t.stats.st_regions_fallback = 0)

(* with explicit copies, a write-only array that is copied out is a
   legitimate program output: no dead store, and its liveness shape is
   write-only until the copy *)
let test_write_only_output () =
  let t =
    Sf.analyze
      (program "wonly" [ "A"; "X" ]
         [ Copy_to_device "A"; launch "wx" [ "A"; "X" ]; Copy_to_host "X" ])
  in
  Alcotest.(check int) "no issues" 0 (List.length t.Sf.issues);
  Alcotest.(check int) "no lint findings" 0 (List.length (Sf.lint t));
  let a = find_array_info t "A" and x = find_array_info t "X" in
  Alcotest.(check (pair bool bool)) "A is input, not output" (true, false)
    (a.ai_input, a.ai_output);
  Alcotest.(check (pair bool bool)) "X is output, not input" (false, true)
    (x.ai_input, x.ai_output);
  Alcotest.(check (option int)) "X never read before the copy-out" (Some 2) x.ai_first_read;
  Alcotest.(check (option int)) "X first written by the launch" (Some 1) x.ai_first_write

(* ------------------------------------------------------------------ *)
(* dependences: an array redefined between two reads                   *)
(* ------------------------------------------------------------------ *)

let test_redefinition_deps () =
  let t =
    Sf.analyze
      (program "redef" [ "A"; "X"; "B"; "C" ]
         [
           launch "wx" [ "A"; "X" ];
           launch "rx" [ "X"; "B" ];
           launch "wx" [ "A"; "X" ];
           launch "rx" [ "X"; "C" ];
         ])
  in
  let has src dst kind =
    List.exists
      (fun (d : Sf.dep) ->
        d.dep_src = src && d.dep_dst = dst && d.dep_array = "X" && d.dep_kind = kind)
      t.Sf.deps
  in
  Alcotest.(check bool) "RAW def -> first read" true (has 0 1 Sf.Raw);
  Alcotest.(check bool) "WAR first read -> redefinition" true (has 1 2 Sf.War);
  Alcotest.(check bool) "WAW def -> redefinition" true (has 0 2 Sf.Waw);
  Alcotest.(check bool) "RAW redefinition -> second read" true (has 2 3 Sf.Raw);
  (* the launch-level obligation set carries the same edges *)
  let ld = Sf.launch_deps t in
  Alcotest.(check bool) "launch_deps carries (0,1,X) and (2,3,X)" true
    (List.mem (0, 1, "X") ld && List.mem (2, 3, "X") ld)

let test_quickstart_launch_deps () =
  let t = Sf.analyze (Kft_apps.Apps.quickstart ()).program in
  Alcotest.(check (list (triple int int string)))
    "quickstart schedule DDG" [ (0, 1, "V"); (1, 2, "W") ] (Sf.launch_deps t)

(* an op's access sets list arrays in the order the kernel body first
   uses them (the DDG's DOT files follow it); the reports print them by
   name *)
let test_op_sets_body_order () =
  let mix =
    Kft_cuda.Parse.kernels
      {|
__global__ void mix(const double *Z, const double *Y, double *X, int m) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < m) X[i] = Z[i] + Y[i];
}
|}
  in
  let p =
    { (program "order" [ "P"; "Q"; "R" ] [ launch "mix" [ "Q"; "P"; "R" ] ]) with
      p_kernels = mix }
  in
  let t = Sf.analyze p in
  Alcotest.(check (list string)) "reads in body order" [ "Q"; "P" ]
    (List.map fst (List.hd t.Sf.ops).op_reads);
  Alcotest.(check bool) "JSON reads by name" true
    (Util.contains (Sf.render_json [ t ])
       {|"reads":[{"array":"P","region":[0,63]},{"array":"Q","region":[0,63]}]|});
  Alcotest.(check bool) "human reads by name" true
    (Util.contains (Sf.render_human t) "reads P[0,63],Q[0,63]")

(* ------------------------------------------------------------------ *)
(* issues: read-before-write and dead store (need explicit copies)     *)
(* ------------------------------------------------------------------ *)

let test_issues () =
  let t =
    Sf.analyze
      (program "issues" [ "A"; "X"; "B"; "D" ]
         [
           Copy_to_device "A";
           (* X is read here but never copied in nor written before *)
           launch "rx" [ "X"; "B" ];
           (* D is written but never read nor copied out *)
           launch "wx" [ "A"; "D" ];
           Copy_to_host "B";
         ])
  in
  Alcotest.(check bool) "read-before-write on X at op 1" true
    (List.mem (Sf.Read_before_write { rb_array = "X"; rb_op = 1 }) t.Sf.issues);
  Alcotest.(check bool) "dead store to D at op 2" true
    (List.mem (Sf.Dead_store { ds_array = "D"; ds_op = 2 }) t.Sf.issues);
  List.iter (fun i -> Alcotest.(check bool) "printable" true (Sf.pp_issue i <> "")) t.Sf.issues

(* ------------------------------------------------------------------ *)
(* the three lint rules                                                *)
(* ------------------------------------------------------------------ *)

let rules fs = List.map (fun (f : L.finding) -> (f.f_rule, f.f_severity)) fs

let test_lint_dead_array () =
  let fs =
    Sf.lint_program
      (program "deadarr" [ "A"; "X"; "D"; "Z" ]
         [
           Copy_to_device "A";
           launch "wx" [ "A"; "X" ];
           (* D: written, never read back; Z: never accessed at all *)
           launch "wx" [ "A"; "D" ];
           Copy_to_host "X";
         ])
  in
  let dead = List.filter (fun (f : L.finding) -> f.f_rule = "dead-array") fs in
  Alcotest.(check int) "two dead arrays" 2 (List.length dead);
  Alcotest.(check bool) "both are warnings" true
    (List.for_all (fun (f : L.finding) -> f.f_severity = L.Warn) dead);
  Alcotest.(check bool) "names D and Z" true
    (List.exists (fun (f : L.finding) -> Util.contains f.f_message "D") dead
    && List.exists (fun (f : L.finding) -> Util.contains f.f_message "Z") dead)

let test_lint_redundant_copy () =
  let fs =
    Sf.lint_program
      (program "redcopy" [ "S"; "D"; "B" ]
         [ launch "copyk" [ "S"; "D" ]; launch "rx" [ "D"; "B" ] ])
  in
  match List.filter (fun (f : L.finding) -> f.f_rule = "redundant-copy") fs with
  | [ f ] ->
      Alcotest.(check bool) "warning severity" true (f.f_severity = L.Warn);
      Alcotest.(check string) "attributed to the copy kernel" "copyk" f.f_kernel;
      Alcotest.(check bool) "message names both host arrays" true
        (Util.contains f.f_message "S" && Util.contains f.f_message "D")
  | fs' -> Alcotest.failf "expected exactly one redundant-copy finding, got %d" (List.length fs')

(* a scaled copy (rx: B[i] = X[i] * 2.0) is NOT element-identical *)
let test_lint_no_false_redundant_copy () =
  let fs =
    Sf.lint_program
      (program "scaled" [ "X"; "B" ] [ launch "rx" [ "X"; "B" ] ])
  in
  Alcotest.(check bool) "scaled copy not flagged" true
    (not (List.mem_assoc "redundant-copy" (rules fs)))

let test_lint_transient_global () =
  let fs =
    Sf.lint_program
      (program "transient" [ "A"; "X"; "T" ]
         [
           Copy_to_device "A";
           launch "wx" [ "A"; "X" ];
           (* T's whole live range is the single bump launch *)
           launch "bump" [ "T" ];
           Copy_to_host "X";
         ])
  in
  match List.filter (fun (f : L.finding) -> f.f_rule = "transient-global") fs with
  | [ f ] ->
      Alcotest.(check bool) "info severity" true (f.f_severity = L.Info);
      Alcotest.(check string) "attributed to the launch" "bump" f.f_kernel;
      Alcotest.(check bool) "names T" true (Util.contains f.f_message "T")
  | fs' -> Alcotest.failf "expected exactly one transient-global finding, got %d" (List.length fs')

(* ------------------------------------------------------------------ *)
(* liveness-driven arena overlay                                       *)
(* ------------------------------------------------------------------ *)

let test_arena_layout_quickstart () =
  let p = (Kft_apps.Apps.quickstart ()).program in
  let t = Sf.analyze p in
  match Sf.arena_layout t with
  | None -> Alcotest.fail "quickstart has a sharing opportunity (U2 never reads)"
  | Some layout ->
      let packed = List.fold_left (fun acc a -> acc + array_cells a) 0 p.p_arrays in
      Alcotest.(check bool) "overlay strictly smaller than packed" true
        (layout.Kft_sim.Memory.l_total < packed);
      Alcotest.(check int) "every array placed" (List.length p.p_arrays)
        (List.length layout.l_offsets);
      List.iter
        (fun a ->
          match List.assoc_opt a.a_name layout.l_offsets with
          | None -> Alcotest.failf "array %s missing from the layout" a.a_name
          | Some off ->
              Alcotest.(check bool) "inside the arena" true
                (off >= 0 && off + array_cells a <= layout.l_total))
        p.p_arrays;
      (* bit-identity: the overlay run reproduces the packed run's
         per-kernel statistics exactly (final memory is allowed to
         differ on shared slots -- the overlay is for discarded runs) *)
      let stats_of ?layout () =
        let r = Kft_sim.Profiler.profile ?layout Util.device p in
        let sts =
          List.map (fun (kp : Kft_sim.Profiler.kernel_profile) -> (kp.kernel, kp.stats)) r.profiles
        in
        Kft_sim.Memory.release r.memory;
        sts
      in
      Alcotest.(check bool) "overlay stats bit-identical to packed" true
        (stats_of () = stats_of ~layout ())

(* ------------------------------------------------------------------ *)
(* property: computed liveness is sound against the interpreter        *)
(* ------------------------------------------------------------------ *)

let prop_liveness_sound =
  QCheck.Test.make ~name:"every traced access falls inside the live interval" ~count:15
    (QCheck.make
       ~print:(fun s -> Kft_cuda.Pp.program (Test_endtoend.program_of_spec s))
       Test_endtoend.spec_gen)
    (fun spec ->
      let prog = Test_endtoend.program_of_spec spec in
      match Kft_cuda.Check.program prog with
      | _ :: _ -> QCheck.assume_fail ()
      | [] -> (
          let t = Sf.analyze prog in
          let mem = Kft_sim.Memory.create prog.p_arrays in
          Kft_sim.Memory.init_seeded mem ~seed:7;
          let violations = ref [] in
          (* generated schedules are launch-only, so the op index is the
             schedule position *)
          List.iteri
            (fun op stmt ->
              match stmt with
              | Copy_to_device _ | Copy_to_host _ -> ()
              | Launch l ->
                  Kft_sim.Interp.access_trace :=
                    Some
                      (fun ~write:_ arr _ ->
                        let ok =
                          match Sf.live_interval t arr with
                          | Some (first, last) -> first <= op && op <= last
                          | None -> false
                        in
                        if not ok then
                          violations :=
                            Printf.sprintf "op %d (%s) touches %s outside its live interval" op
                              l.l_kernel arr
                            :: !violations);
                  Fun.protect
                    ~finally:(fun () -> Kft_sim.Interp.access_trace := None)
                    (fun () -> ignore (Kft_sim.Interp.launch ~affine:false mem prog l)))
            prog.p_schedule;
          Kft_sim.Memory.release mem;
          match !violations with
          | [] -> true
          | v ->
              QCheck.Test.fail_reportf "unsound liveness:\n%s\nprogram:\n%s"
                (String.concat "\n" (List.sort_uniq compare v))
                (Kft_cuda.Pp.program prog)))

(* ------------------------------------------------------------------ *)
(* Verify.merge regression: dedupe keys on the array too               *)
(* ------------------------------------------------------------------ *)

let test_merge_keeps_distinct_arrays () =
  let d array =
    {
      V.d_kernel = "k";
      d_pass = V.Schedule;
      d_loc = Kft_cuda.Loc.none;
      d_stmt = "schedule";
      d_array = array;
      d_message = "dependence not preserved";
    }
  in
  let r array = { V.empty_report with diagnostics = [ d array ] } in
  let merged = V.merge (r "A") (r "B") in
  Alcotest.(check int)
    "diagnostics differing only in the array both survive the merge" 2
    (List.length merged.diagnostics);
  (* identical diagnostics still collapse *)
  let collapsed = V.merge (r "A") (r "A") in
  Alcotest.(check int) "identical diagnostics dedupe" 1 (List.length collapsed.diagnostics)

(* ------------------------------------------------------------------ *)
(* golden: byte-stable JSON report for quickstart                      *)
(* ------------------------------------------------------------------ *)

let golden_quickstart_json =
  {golden|{"tool":"kft-schedflow","version":1,"programs":[
 {"name":"quickstart","stats":{"ops":3,"launches":3,"arrays":4,"deps":2,"deps_refined":0,"regions_proved":7,"regions_fallback":0},
  "arrays":[
   {"name":"U","cells":12288,"input":true,"output":true,"first":0,"last":1,"first_read":0,"first_write":null,"last_read":1,"last_write":null},
   {"name":"U2","cells":12288,"input":true,"output":true,"first":2,"last":2,"first_read":null,"first_write":2,"last_read":null,"last_write":2},
   {"name":"V","cells":12288,"input":true,"output":true,"first":0,"last":1,"first_read":1,"first_write":0,"last_read":1,"last_write":0},
   {"name":"W","cells":12288,"input":true,"output":true,"first":1,"last":2,"first_read":2,"first_write":1,"last_read":2,"last_write":1}],
  "ops":[
   {"op":0,"kind":"launch","target":"diffuse","reads":[{"array":"U","region":[65,12222]}],"writes":[{"array":"V","region":[1089,11198]}]},
   {"op":1,"kind":"launch","target":"smooth","reads":[{"array":"U","region":[2178,10109]},{"array":"V","region":[2114,10173]}],"writes":[{"array":"W","region":[2178,10109]}]},
   {"op":2,"kind":"launch","target":"relax","reads":[{"array":"W","region":[0,12287]}],"writes":[{"array":"U2","region":[0,12287]}]}],
  "deps":[
   {"src":0,"dst":1,"array":"V","kind":"raw"},
   {"src":1,"dst":2,"array":"W","kind":"raw"}],
  "issues":[],
  "findings":[]}
],"warnings":0,"infos":0}
|golden}

let test_golden_json () =
  let out = Sf.render_json [ Sf.analyze (Kft_apps.Apps.quickstart ()).program ] in
  (match Kft_trace.Json_check.check out with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schedflow JSON does not parse: %s" e);
  Alcotest.(check string) "pinned quickstart report bytes" golden_quickstart_json out

let suite =
  [
    Alcotest.test_case "empty schedule" `Quick test_empty_schedule;
    Alcotest.test_case "single launch" `Quick test_single_launch;
    Alcotest.test_case "write-only output array is not a dead store" `Quick
      test_write_only_output;
    Alcotest.test_case "redefinition between reads: RAW/WAR/WAW" `Quick test_redefinition_deps;
    Alcotest.test_case "quickstart launch-level schedule DDG" `Quick test_quickstart_launch_deps;
    Alcotest.test_case "op sets in body order, reports by name" `Quick test_op_sets_body_order;
    Alcotest.test_case "read-before-write and dead-store issues" `Quick test_issues;
    Alcotest.test_case "lint: dead-array" `Quick test_lint_dead_array;
    Alcotest.test_case "lint: redundant-copy" `Quick test_lint_redundant_copy;
    Alcotest.test_case "lint: scaled copy is not redundant" `Quick
      test_lint_no_false_redundant_copy;
    Alcotest.test_case "lint: transient-global" `Quick test_lint_transient_global;
    Alcotest.test_case "arena overlay: placed, smaller, bit-identical stats" `Quick
      test_arena_layout_quickstart;
    QCheck_alcotest.to_alcotest prop_liveness_sound;
    Alcotest.test_case "Verify.merge keys on the array" `Quick test_merge_keeps_distinct_arrays;
    Alcotest.test_case "golden JSON report (quickstart)" `Quick test_golden_json;
  ]
