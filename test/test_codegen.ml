(* Code generation: canonicalization, fusion planning rules, generated
   kernels verified against the original on the simulator. *)

open Kft_cuda.Ast
module C = Kft_codegen.Canonical
module Fu = Kft_codegen.Fusion
module Cg = Kft_codegen.Codegen

let dims = (32, 16, 8)

let extract prog ?(deep = `Sequential) i name =
  C.extract ~deep ~index:i prog (Util.launch_of prog name)

let pc = Util.producer_consumer_program ~dims ()

let test_canonical_fields () =
  let m = extract pc 0 "produce" in
  Alcotest.(check string) "name" "produce" m.m_name;
  Alcotest.(check bool) "guard present" true (m.m_guard <> None);
  Alcotest.(check bool) "kloop bounds" true (m.m_kloop = Some (1, 7));
  Alcotest.(check bool) "reads A radius 1" true
    (List.length (C.reads_of m "A") = 6);
  Alcotest.(check bool) "writes B at origin" true (C.writes_of m "B" = [ (0, 0, 0) ]);
  Alcotest.(check (list string)) "touched arrays" [ "A"; "B" ] (List.sort compare (C.touched_arrays m))

let test_canonical_renaming () =
  let m = extract pc 1 "consume" in
  (* double params suffixed with the member index *)
  Alcotest.(check bool) "double arg renamed" true
    (List.exists (fun (n, _) -> n = "c__m2") m.m_double_args)

let test_canonical_wild_offsets () =
  let d = { Kft_apps.Gen.nx = 16; ny = 8; nz = 8 } in
  let b = Kft_apps.Gen.deep_nest d ~name:"deep" ~out:"O" ~band_in:"A" ~plane_ins:[ "P" ] () in
  let prog =
    { p_name = "t"; p_arrays = b.arrays; p_kernels = [ b.kernel ]; p_schedule = [ Launch b.launch ] }
  in
  (* under Inner_shared the outer loop hoists and the band reads are wild *)
  let m = extract prog ~deep:`Inner_shared 0 "deep" in
  Alcotest.(check bool) "kloop hoisted" true (m.m_kloop <> None);
  let a_offs = C.reads_of m "A" in
  Alcotest.(check bool) "band read is wild in z" true
    (List.exists (fun (_, _, dz) -> abs dz >= C.wild_offset) a_offs);
  (* under Sequential the nest stays opaque *)
  let m' = extract prog ~deep:`Sequential 0 "deep" in
  Alcotest.(check bool) "nest opaque" true (m'.m_kloop = None)

(* The product form canonicalization reads member indices through. *)
let test_affine_over () =
  let e = Kft_cuda.Parse.expr "32 * (16 * kv + gj) + gi + 2" in
  (match Kft_analysis.Absint.affine_of_expr ~vars:[ "gi"; "gj"; "kv" ] e with
  | Some (coeffs, 2) ->
      Alcotest.(check bool) "coeffs" true
        (List.sort compare coeffs = [ ("gi", 1); ("gj", 32); ("kv", 512) ])
  | _ -> Alcotest.fail "expected affine");
  (* non-affine *)
  Alcotest.(check bool) "quadratic rejected" true
    (Kft_analysis.Absint.affine_of_expr ~vars:[ "x" ] (Kft_cuda.Parse.expr "x * x") = None)

let check_plan members = Fu.check_group members

let test_plan_producer_stage () =
  let m0 = extract pc 0 "produce" and m1 = extract pc 1 "consume" in
  match check_plan [ m0; m1 ] with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check bool) "has kloop" true plan.p_has_kloop;
      Alcotest.(check bool) "unified bounds" true (plan.p_klo = 0 && plan.p_khi = 8);
      let b = List.find (fun (s : Fu.stage) -> s.s_array = "B") plan.p_stages in
      Alcotest.(check bool) "B produced by member 0" true (b.s_kind = Fu.Produced 0);
      Alcotest.(check int) "radius 0 (origin consumer)" 0 b.s_radius

let test_plan_reuse_stage () =
  (* two independent readers of A *)
  let src =
    Util.stencil_src ~name:"r1" ~src:"A" ~dst:"B" ~margin:1 ~threed:false
    ^ Util.stencil_src ~name:"r2" ~src:"A" ~dst:"C" ~margin:2 ~threed:false
  in
  let prog =
    {
      p_name = "t";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "C" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule =
        List.map
          (fun (k, args) ->
            Launch { l_kernel = k; l_domain = (32, 16, 1); l_block = (16, 4, 1);
                     l_args = Util.std_args dims args 0.25 })
          [ ("r1", [ "A"; "B" ]); ("r2", [ "A"; "C" ]) ];
    }
  in
  let m0 = extract prog 0 "r1" and m1 = extract prog 1 "r2" in
  match check_plan [ m0; m1 ] with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      match plan.p_stages with
      | [ s ] ->
          Alcotest.(check string) "stages A" "A" s.s_array;
          Alcotest.(check bool) "reuse" true (s.s_kind = Fu.Reuse);
          Alcotest.(check int) "radius covers both readers" 1 s.s_radius
      | _ -> Alcotest.fail "expected exactly one stage")

let test_rule_war_offsets_rejected () =
  (* reader with offsets before an in-group writer of the same array *)
  let src =
    Util.stencil_src ~name:"rd" ~src:"A" ~dst:"B" ~margin:1 ~threed:false
    ^ Util.pointwise_src ~name:"wr" ~a:"B" ~b:"B" ~dst:"A"
  in
  let prog =
    {
      p_name = "t";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "B" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule =
        List.map
          (fun (k, args) ->
            Launch { l_kernel = k; l_domain = (32, 16, 1); l_block = (16, 4, 1);
                     l_args = Util.std_args dims args 0.5 })
          [ ("rd", [ "A"; "B" ]); ("wr", [ "B"; "B"; "A" ]) ];
    }
  in
  let m0 = extract prog 0 "rd" and m1 = extract prog 1 "wr" in
  match check_plan [ m0; m1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "WAR with offsets must be infeasible"

let test_rule_vertical_consumer_rejected () =
  (* consumer reads the produced array at a vertical offset *)
  let src =
    Util.pointwise_src ~name:"mk" ~a:"A" ~b:"A" ~dst:"B"
    ^ Util.stencil_src ~name:"use" ~src:"B" ~dst:"C" ~margin:1 ~threed:true
  in
  let prog =
    {
      p_name = "t";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "C" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule =
        List.map
          (fun (k, args) ->
            Launch { l_kernel = k; l_domain = (32, 16, 1); l_block = (16, 4, 1);
                     l_args = Util.std_args dims args 0.5 })
          [ ("mk", [ "A"; "A"; "B" ]); ("use", [ "B"; "C" ]) ];
    }
  in
  let m0 = extract prog 0 "mk" and m1 = extract prog 1 "use" in
  match check_plan [ m0; m1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vertical consumption of produced array must be infeasible"

let build_and_verify ?(options = Fu.auto_options) prog groups =
  let r = Cg.transform ~options Util.device prog ~groups in
  (match Kft_sim.Profiler.verify Util.device ~original:prog ~transformed:r.program with
  | Ok () -> ()
  | Error diffs ->
      Alcotest.fail
        (Printf.sprintf "verification failed on %s" (String.concat "," (List.map fst diffs))));
  r

let test_simple_fusion_verified () =
  let prog = pc in
  let groups = [ [ Util.launch_of prog "produce"; Util.launch_of prog "consume" ] ] in
  let r = build_and_verify prog groups in
  let fused = List.find (fun (rep : Cg.kernel_report) -> List.length rep.members = 2) r.reports in
  Alcotest.(check bool) "complex fusion (producer stage)" true (fused.fusion_kind = `Complex);
  Alcotest.(check bool) "shared memory used" true (fused.shared_bytes > 0)

let test_auto_vs_manual_divergence () =
  (* different-width members: per-statement guards multiply divergent
     conditional evaluations (the Figure 7 mechanism) *)
  let app = Kft_apps.Apps.homme ~chains:2 () in
  let prog = app.program in
  (* groups must be passed in schedule (topological) order: insert the
     pair at the first member's position *)
  let groups =
    List.filter_map
      (function
        | Launch l when l.l_kernel = "grad_02" ->
            Some [ l; Util.launch_of prog "div_02" ]
        | Launch l when l.l_kernel = "div_02" -> None
        | Launch l -> Some [ l ]
        | _ -> None)
      prog.p_schedule
  in
  let auto = build_and_verify ~options:{ Fu.auto_options with tune_blocks = false } prog groups in
  let manual = build_and_verify ~options:Fu.manual_options prog groups in
  let div_of (r : Cg.result) =
    let run = Kft_sim.Profiler.profile Util.device r.program in
    List.fold_left
      (fun acc (p : Kft_sim.Profiler.kernel_profile) ->
        acc + p.stats.divergent_warp_cond_evals)
      0 run.profiles
  in
  Alcotest.(check bool) "per-statement guards diverge more" true (div_of auto > div_of manual)

let test_fallback_on_infusable () =
  (* grouping two kernels with a WAR hazard falls back to singles *)
  let src =
    Util.stencil_src ~name:"rd" ~src:"A" ~dst:"B" ~margin:1 ~threed:false
    ^ Util.pointwise_src ~name:"wr" ~a:"B" ~b:"B" ~dst:"A"
  in
  let prog =
    {
      p_name = "t";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "B" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule =
        List.map
          (fun (k, args) ->
            Launch { l_kernel = k; l_domain = (32, 16, 1); l_block = (16, 4, 1);
                     l_args = Util.std_args dims args 0.5 })
          [ ("rd", [ "A"; "B" ]); ("wr", [ "B"; "B"; "A" ]) ];
    }
  in
  let groups = [ [ Util.launch_of prog "rd"; Util.launch_of prog "wr" ] ] in
  let r = build_and_verify prog groups in
  Alcotest.(check int) "two singleton reports" 2 (List.length r.reports);
  Alcotest.(check bool) "fallback noted" true
    (List.exists (fun (rep : Cg.kernel_report) -> rep.notes <> []) r.reports)

let test_tuning_reported () =
  let prog = Util.producer_consumer_program ~dims ~block:(32, 2, 1) () in
  let groups =
    List.filter_map (function Launch l -> Some [ l ] | _ -> None) prog.p_schedule
  in
  let r = Cg.transform ~options:Fu.auto_options Util.device prog ~groups in
  List.iter
    (fun (rep : Cg.kernel_report) ->
      Alcotest.(check bool) "occupancy not worsened" true
        (rep.occupancy_after >= rep.occupancy_before -. 1e-9))
    r.reports

let test_generated_code_reparses () =
  let prog = pc in
  let groups = [ [ Util.launch_of prog "produce"; Util.launch_of prog "consume" ] ] in
  let r = Cg.transform ~options:Fu.auto_options Util.device prog ~groups in
  List.iter
    (fun k ->
      let text = Kft_cuda.Pp.kernel k in
      let k' = Kft_cuda.Parse.kernel text in
      Alcotest.(check bool) ("reparses: " ^ k.k_name) true (equal_kernel k k'))
    r.program.p_kernels

let test_three_member_pipeline () =
  (* A -> B -> C -> D chain fused as one kernel, with halos *)
  let src =
    Util.stencil_src ~name:"s1" ~src:"A" ~dst:"B" ~margin:1 ~threed:false
    ^ Util.stencil_src ~name:"s2" ~src:"B" ~dst:"C" ~margin:2 ~threed:false
    ^ Util.pointwise_src ~name:"s3" ~a:"C" ~b:"A" ~dst:"D"
  in
  let prog =
    {
      p_name = "pipe";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "C"; "D" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule =
        List.map
          (fun (k, args) ->
            Launch { l_kernel = k; l_domain = (32, 16, 1); l_block = (16, 4, 1);
                     l_args = Util.std_args dims args 0.25 })
          [ ("s1", [ "A"; "B" ]); ("s2", [ "B"; "C" ]); ("s3", [ "C"; "A"; "D" ]) ];
    }
  in
  let groups = [ List.map (Util.launch_of prog) [ "s1"; "s2"; "s3" ] ] in
  let r = build_and_verify prog groups in
  let fused = List.find (fun (rep : Cg.kernel_report) -> List.length rep.members = 3) r.reports in
  (* B's tile must cover s2's reads *)
  Alcotest.(check bool) "B staged with radius >= 1" true
    (List.exists (fun (a, rad) -> a = "B" && rad >= 1) fused.staged_arrays)

let suite =
  [
    Alcotest.test_case "canonical member fields" `Quick test_canonical_fields;
    Alcotest.test_case "canonical renaming" `Quick test_canonical_renaming;
    Alcotest.test_case "wild offsets for band reads" `Quick test_canonical_wild_offsets;
    Alcotest.test_case "affine_over" `Quick test_affine_over;
    Alcotest.test_case "plan: producer staging" `Quick test_plan_producer_stage;
    Alcotest.test_case "plan: reuse staging" `Quick test_plan_reuse_stage;
    Alcotest.test_case "rule: WAR with offsets" `Quick test_rule_war_offsets_rejected;
    Alcotest.test_case "rule: vertical consumption" `Quick test_rule_vertical_consumer_rejected;
    Alcotest.test_case "complex fusion verified" `Quick test_simple_fusion_verified;
    Alcotest.test_case "divergence: auto vs manual" `Quick test_auto_vs_manual_divergence;
    Alcotest.test_case "fallback on infusable group" `Quick test_fallback_on_infusable;
    Alcotest.test_case "tuning never worsens occupancy" `Quick test_tuning_reported;
    Alcotest.test_case "generated code reparses" `Quick test_generated_code_reparses;
    Alcotest.test_case "three-member pipeline" `Quick test_three_member_pipeline;
  ]

(* Per-statement and hoisted guard schemes must be semantically equal *)
let test_branch_schemes_agree () =
  let prog = pc in
  let groups = [ [ Util.launch_of prog "produce"; Util.launch_of prog "consume" ] ] in
  let build opts = (Cg.transform ~options:opts Util.device prog ~groups).program in
  let run p =
    let mem = Kft_sim.Memory.create p.p_arrays in
    Kft_sim.Memory.init_seeded mem ~seed:17;
    ignore (Kft_sim.Interp.run_schedule mem p);
    mem
  in
  let m1 = run (build { Fu.auto_options with tune_blocks = false }) in
  let m2 = run (build Fu.manual_options) in
  Alcotest.(check bool) "identical results" true (Kft_sim.Memory.bits_equal m1 m2)

(* fused kernels are named K_fNN in emission order *)
let test_fused_naming () =
  let prog = pc in
  let groups = [ [ Util.launch_of prog "produce"; Util.launch_of prog "consume" ] ] in
  let r = Cg.transform ~options:Fu.auto_options Util.device prog ~groups in
  Alcotest.(check bool) "K_f01 emitted" true
    (List.exists (fun k -> k.k_name = "K_f01") r.program.p_kernels)

(* a singleton launch of a guarded kernel may be retuned; an unguarded
   kernel must keep its block (the grid may not overshoot) *)
let test_unguarded_not_tuned () =
  let src =
    {|
__global__ void plain(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  B[j * nx + i] = c * A[j * nx + i];
}
|}
  in
  let prog =
    {
      p_name = "t";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "B" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule =
        [ Launch { l_kernel = "plain"; l_domain = (32, 16, 1); l_block = (16, 4, 1);
                   l_args = Util.std_args dims [ "A"; "B" ] 1.0 } ];
    }
  in
  let block, _, _, _ = Cg.tune_single Util.device prog (Util.launch_of prog "plain") in
  Alcotest.(check bool) "block unchanged" true (block = (16, 4, 1))

let extra_suite =
  [
    Alcotest.test_case "branch schemes agree semantically" `Quick test_branch_schemes_agree;
    Alcotest.test_case "fused kernel naming" `Quick test_fused_naming;
    Alcotest.test_case "unguarded kernels not retuned" `Quick test_unguarded_not_tuned;
  ]
