(* Kernel fission (Algorithm 2): plans, semantics preservation. *)

open Kft_cuda.Ast
module F = Kft_fission.Fission
module Gen = Kft_apps.Gen

let dims = { Gen.nx = 16; ny = 8; nz = 6 }

(* a Figure-3 style already-fused kernel with two separable groups *)
let fused_built =
  Gen.multi_output dims ~name:"kern_a"
    ~groups:
      [
        ("R", [ "S"; "V" ], [ (1, 0, 0); (-1, 0, 0) ]);
        ("W", [ "Q"; "P" ], [ (0, 1, 0); (0, -1, 0) ]);
      ]
    ~coef:0.3 ()

let fused_prog =
  {
    p_name = "fig3";
    p_arrays = fused_built.arrays;
    p_kernels = [ fused_built.kernel ];
    p_schedule = [ Launch fused_built.launch ];
  }

let test_fissionable () =
  Alcotest.(check bool) "separable kernel" true (F.fissionable fused_built.kernel);
  let linked = Kft_cuda.Parse.kernel (Util.pointwise_src ~name:"pw" ~a:"A" ~b:"B" ~dst:"C") in
  Alcotest.(check bool) "single-output kernel" false (F.fissionable linked)

let test_plan_parts () =
  match F.plan fused_built.kernel with
  | None -> Alcotest.fail "expected a plan"
  | Some plan ->
      Alcotest.(check int) "two parts" 2 (List.length plan.parts);
      List.iter
        (fun (p : F.part) ->
          (* each part only references its own arrays *)
          let refs = referenced_arrays p.part_kernel in
          Alcotest.(check bool)
            ("arrays confined: " ^ p.part_kernel.k_name)
            true
            (List.for_all (fun a -> List.mem a p.part_arrays) refs))
        plan.parts;
      (* pairwise disjoint and complete *)
      let all = List.concat_map (fun (p : F.part) -> p.part_arrays) plan.parts in
      Alcotest.(check int) "complete" 6 (List.length (List.sort_uniq compare all));
      Alcotest.(check int) "disjoint" (List.length all) (List.length (List.sort_uniq compare all))

let test_part_naming () =
  match F.plan fused_built.kernel with
  | Some plan ->
      List.iteri
        (fun i (p : F.part) ->
          Alcotest.(check string) "name" (Printf.sprintf "kern_a__f%d" (i + 1)) p.part_kernel.k_name)
        plan.parts
  | None -> Alcotest.fail "no plan"

let test_seed_changes_order_not_content () =
  let p1 = Option.get (F.plan ~seed:1 fused_built.kernel) in
  let p2 = Option.get (F.plan ~seed:2 fused_built.kernel) in
  let sets p =
    List.map (fun (x : F.part) -> List.sort compare x.part_arrays) p.F.parts
    |> List.sort compare
  in
  Alcotest.(check bool) "same components" true (sets p1 = sets p2)

let test_split_launch () =
  let plan = Option.get (F.plan fused_built.kernel) in
  let launches = F.split_launch fused_built.kernel plan fused_built.launch in
  Alcotest.(check int) "two launches" 2 (List.length launches);
  List.iter2
    (fun (l : launch) (p : F.part) ->
      Alcotest.(check string) "kernel name" p.part_kernel.k_name l.l_kernel;
      Alcotest.(check int) "arity" (List.length p.part_kernel.k_params) (List.length l.l_args))
    launches plan.parts

let test_fission_preserves_semantics () =
  let plan = Option.get (F.plan fused_built.kernel) in
  let fissioned = F.apply_to_program ~plans:[ ("kern_a", plan) ] fused_prog in
  Alcotest.(check int) "two kernels" 2 (List.length fissioned.p_kernels);
  let m1 = Util.run_to_memory fused_prog and m2 = Util.run_to_memory fissioned in
  Alcotest.(check bool) "identical results" true (Kft_sim.Memory.bits_equal m1 m2)

let test_fission_semantics_all_apps_kernel () =
  (* the AWP velocity kernel (three groups) *)
  let app = Kft_apps.Apps.awp_odc () in
  let vel = find_kernel app.program "vel_a" in
  let plan = Option.get (F.plan vel) in
  Alcotest.(check int) "three parts" 3 (List.length plan.parts);
  let prog' = F.apply_to_program ~plans:[ ("vel_a", plan) ] app.program in
  let m1 = Util.run_to_memory app.program and m2 = Util.run_to_memory prog' in
  Alcotest.(check bool) "identical results" true (Kft_sim.Memory.bits_equal m1 m2)

let test_iterate_plan_fixpoint () =
  match F.iterate_plan fused_built.kernel with
  | Some plan ->
      List.iter
        (fun (p : F.part) ->
          Alcotest.(check bool) "no part fissionable" false (F.fissionable p.part_kernel))
        plan.parts
  | None -> Alcotest.fail "expected plan"

let test_guard_kept_in_parts () =
  let plan = Option.get (F.plan fused_built.kernel) in
  List.iter
    (fun (p : F.part) ->
      let has_guard =
        fold_stmts (fun acc s -> acc || match s with If _ -> true | _ -> false) false
          p.part_kernel.k_body
      in
      Alcotest.(check bool) "guard preserved" true has_guard)
    plan.parts

(* a plan whose part name is already a kernel of the program cannot be
   applied: the result would define that kernel twice *)
let test_part_name_clash_raises () =
  let plan = Option.get (F.plan fused_built.kernel) in
  let taken = (List.hd plan.parts).part_kernel.k_name in
  let prog =
    { fused_prog with
      p_kernels = fused_prog.p_kernels @ [ { fused_built.kernel with k_name = taken } ] }
  in
  Alcotest.(check (option string)) "clash found" (Some taken) (F.name_clash prog plan);
  Alcotest.(check (option string)) "no clash without it" None (F.name_clash fused_prog plan);
  match F.apply_to_program ~plans:[ (fused_built.kernel.k_name, plan) ] prog with
  | (_ : program) -> Alcotest.fail "a clashing plan was applied"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the part" true (Util.contains msg taken)

let suite =
  [
    Alcotest.test_case "fissionable detection" `Quick test_fissionable;
    Alcotest.test_case "plan parts disjoint+complete" `Quick test_plan_parts;
    Alcotest.test_case "part naming" `Quick test_part_naming;
    Alcotest.test_case "seed independence of components" `Quick test_seed_changes_order_not_content;
    Alcotest.test_case "split launch" `Quick test_split_launch;
    Alcotest.test_case "fission preserves semantics" `Quick test_fission_preserves_semantics;
    Alcotest.test_case "fission of AWP velocity kernel" `Quick test_fission_semantics_all_apps_kernel;
    Alcotest.test_case "iterated fission fixpoint" `Quick test_iterate_plan_fixpoint;
    Alcotest.test_case "guards preserved in parts" `Quick test_guard_kept_in_parts;
    Alcotest.test_case "part name clash raises" `Quick test_part_name_clash_raises;
  ]
