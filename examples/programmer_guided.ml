(* Programmer-guided transformation (Section 3.2 / Figure 2).

   The framework runs every stage automatically, but the programmer can
   intervene at the pivotal points. This example demonstrates all three
   hooks on the HOMME-like application:

   1. amend_metadata  - pretend a kernel's measured runtime was noisy and
                        correct it in the performance metadata;
   2. amend_targets   - re-include a kernel the automated filter dropped
                        (or drop one the programmer knows is unprofitable);
   3. amend_solution  - override the GGA's grouping for two kernels the
                        programmer wants fused together.

   Run with: dune exec examples/programmer_guided.exe
*)

module F = Kft_framework.Framework

let () =
  let app = Kft_apps.Apps.homme () in
  (* both passes share one simulation cache: the guided re-run replays
     the source profile and every launch the automated pass simulated *)
  let config =
    {
      F.default_config with
      device = Kft_apps.Apps.bench_device;
      sim_cache = Some (Kft_metadata.Metadata.Sim_cache.create ());
      gga_params = { Kft_gga.Gga.default_params with generations = 100; population = 40 };
    }
  in
  (* fully automated run for reference *)
  let auto = F.transform ~config app.program in
  Printf.printf "automated:          %.3fx (verification %s)\n%!" auto.speedup
    (match auto.verified with Ok () -> "OK" | Error _ -> "FAILED");

  (* guided run: the programmer amends the intermediate results *)
  let hooks =
    {
      F.amend_metadata =
        (fun meta ->
          (* the programmer knows vsum_01's profiled runtime included a
             cold-cache effect; halve it so the objective stops
             over-valuing groups containing it *)
          let performance =
            List.map
              (fun (p : Kft_metadata.Metadata.perf_entry) ->
                if p.kernel = "vsum_01" then { p with runtime_us = p.runtime_us /. 2.0 } else p)
              meta.performance
          in
          { meta with performance });
      amend_targets =
        (fun targets ->
          (* drop a kernel the programmer knows never profits from fusion *)
          List.map (fun (k, e) -> if k = "adv_07" then (k, false) else (k, e)) targets);
      amend_solution =
        (fun groups ->
          (* force grad_01 and div_01 into the same group, wherever the
             search left them *)
          let wanted = [ "grad_01"; "div_01" ] in
          let stripped =
            List.filter_map
              (fun g ->
                match List.filter (fun u -> not (List.mem u wanted)) g with
                | [] -> None
                | g' -> Some g')
              groups
          in
          wanted :: stripped);
    }
  in
  let guided =
    F.transform
      ~config:{ config with codegen_options = Kft_codegen.Fusion.manual_options }
      ~hooks app.program
  in
  Printf.printf "programmer-guided:  %.3fx (verification %s)\n" guided.speedup
    (match guided.verified with Ok () -> "OK" | Error _ -> "FAILED");
  Printf.printf "\nguided groups:\n";
  List.iter
    (fun g -> if List.length g > 1 then Printf.printf "  %s\n" (String.concat " + " g))
    guided.solution_groups;
  (* confirm the forced pair survived codegen *)
  let forced =
    List.find_opt
      (fun (rep : Kft_codegen.Codegen.kernel_report) ->
        List.mem "grad_01" rep.members && List.mem "div_01" rep.members)
      guided.codegen.reports
  in
  match forced with
  | Some rep ->
      Printf.printf "\nforced group became %s (%s fusion, %d staged arrays)\n" rep.new_kernel
        (match rep.fusion_kind with `Complex -> "complex" | `Simple -> "simple" | `None -> "no")
        (List.length rep.staged_arrays)
  | None -> print_endline "\nforced group fell back (see report notes)"
