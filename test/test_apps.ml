(* Evaluation applications: structural invariants + baseline executability. *)

open Kft_cuda.Ast
module Apps = Kft_apps.Apps

let apps = lazy (Apps.all ())

let find name = List.find (fun (a : Apps.app) -> a.app_name = name) (Lazy.force apps)

let test_all_apps_present () =
  let names = List.map (fun (a : Apps.app) -> a.app_name) (Lazy.force apps) in
  Alcotest.(check (list string)) "paper order"
    [ "SCALE-LES"; "HOMME"; "Fluam"; "MITgcm"; "AWP-ODC-GPU"; "B-CALM" ]
    names

let test_by_name () =
  Alcotest.(check bool) "case-insensitive" true (Apps.by_name "b-calm" <> None);
  Alcotest.(check bool) "unknown" true (Apps.by_name "nope" = None)

let test_kernel_counts () =
  let expect =
    (* (kernels, min_arrays) mirroring the population mix of Table 1,
       scaled (see EXPERIMENTS.md) *)
    [ ("SCALE-LES", 113); ("HOMME", 43); ("Fluam", 102); ("MITgcm", 37);
      ("AWP-ODC-GPU", 12); ("B-CALM", 23) ]
  in
  List.iter
    (fun (name, kernels) ->
      let a = find name in
      Alcotest.(check int) (name ^ " kernels") kernels (List.length a.program.p_kernels))
    expect

let test_schedule_covers_kernels () =
  List.iter
    (fun (a : Apps.app) ->
      let launched =
        List.filter_map
          (function Launch l -> Some l.l_kernel | _ -> None)
          a.program.p_schedule
        |> List.sort_uniq compare
      in
      let declared = List.map (fun k -> k.k_name) a.program.p_kernels |> List.sort compare in
      Alcotest.(check (list string)) (a.app_name ^ " schedule covers kernels") declared launched)
    (Lazy.force apps)

let test_args_match_params () =
  List.iter
    (fun (a : Apps.app) ->
      List.iter
        (function
          | Launch l ->
              let k = find_kernel a.program l.l_kernel in
              Alcotest.(check int)
                (a.app_name ^ "/" ^ l.l_kernel ^ " arity")
                (List.length k.k_params) (List.length l.l_args)
          | _ -> ())
        a.program.p_schedule)
    (Lazy.force apps)

let test_arrays_declared () =
  List.iter
    (fun (a : Apps.app) ->
      List.iter
        (function
          | Launch l ->
              List.iter
                (function
                  | Arg_array arr ->
                      Alcotest.(check bool)
                        (a.app_name ^ " declares " ^ arr)
                        true
                        (List.exists (fun d -> d.a_name = arr) a.program.p_arrays)
                  | _ -> ())
                l.l_args
          | _ -> ())
        a.program.p_schedule)
    (Lazy.force apps)

let test_baselines_execute () =
  (* every app's original program runs on the simulator without faults *)
  List.iter
    (fun (a : Apps.app) ->
      match Util.run_to_memory a.program with
      | (_ : Kft_sim.Memory.t) -> ()
      | exception Kft_sim.Interp.Sim_error { kernel; message } ->
          Alcotest.fail (Printf.sprintf "%s: %s: %s" a.app_name kernel message))
    (Lazy.force apps)

let test_deterministic_baseline () =
  let a = find "MITgcm" in
  let m1 = Util.run_to_memory a.program and m2 = Util.run_to_memory a.program in
  Alcotest.(check bool) "bit-identical reruns" true (Kft_sim.Memory.bits_equal m1 m2)

let test_awp_separable () =
  let a = find "AWP-ODC-GPU" in
  List.iter
    (fun name ->
      let k = find_kernel a.program name in
      Alcotest.(check bool) (name ^ " fissionable") true (Kft_fission.Fission.fissionable k))
    [ "vel_a"; "vel_b"; "str_a"; "str_b" ]

let test_bcalm_capacity_pressure () =
  (* fusing two pole kernels whole must exceed the per-block shared
     memory at the production block size: the fission trigger *)
  let a = find "B-CALM" in
  let extract i name =
    Kft_codegen.Canonical.extract ~deep:`Sequential ~index:i a.program
      (Util.launch_of a.program name)
  in
  let m0 = extract 0 "pole_a" and m1 = extract 1 "pole_b" in
  match Kft_codegen.Fusion.check_group [ m0; m1 ] with
  | Ok plan ->
      let bx, by, _ = (Util.launch_of a.program "pole_a").l_block in
      Alcotest.(check bool) "over capacity" true
        (plan.p_shared_bytes bx by > Util.device.shared_mem_per_block)
  | Error e -> Alcotest.fail e

let test_homme_width_mix () =
  let a = find "HOMME" in
  let widths =
    List.filter_map
      (function Launch l -> Some (let x, _, _ = l.l_domain in x) | _ -> None)
      a.program.p_schedule
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "two domain widths" true (List.length widths >= 2)

let test_fluam_latency_population () =
  let a = find "Fluam" in
  let parts =
    List.filter (fun k -> String.length k.k_name >= 4 && String.sub k.k_name 0 4 = "part")
      a.program.p_kernels
  in
  Alcotest.(check int) "12 particle kernels" 12 (List.length parts)

let suite =
  [
    Alcotest.test_case "all six apps" `Quick test_all_apps_present;
    Alcotest.test_case "lookup by name" `Quick test_by_name;
    Alcotest.test_case "kernel counts" `Quick test_kernel_counts;
    Alcotest.test_case "schedule covers kernels" `Quick test_schedule_covers_kernels;
    Alcotest.test_case "launch arities" `Quick test_args_match_params;
    Alcotest.test_case "arrays declared" `Quick test_arrays_declared;
    Alcotest.test_case "baselines execute" `Slow test_baselines_execute;
    Alcotest.test_case "deterministic baseline" `Quick test_deterministic_baseline;
    Alcotest.test_case "AWP kernels separable" `Quick test_awp_separable;
    Alcotest.test_case "B-CALM capacity pressure" `Quick test_bcalm_capacity_pressure;
    Alcotest.test_case "HOMME width mix" `Quick test_homme_width_mix;
    Alcotest.test_case "Fluam latency population" `Quick test_fluam_latency_population;
  ]
