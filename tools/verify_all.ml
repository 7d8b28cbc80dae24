(* CI driver behind the [verify] dune alias (`dune build @verify`):
   runs the kft_verify static analyzer over

   1. the quickstart example program (parsed from CUDA text, so the
      diagnostics exercise the source-position plumbing),
   2. the six bundled evaluation applications, both the original
      programs and the output of the full pipeline under the automated
      codegen options (small GGA budget, fatal verification gate).

   Exits non-zero on any diagnostic or rejected group.  A launch whose
   bounds or race freedom kft_absint cannot prove is itself a
   diagnostic, so the alias fails loudly when a transformation
   regression introduces a race, divergent barrier, out-of-bounds
   access, or an order-violating fusion, or leaves the provers' reach. *)

module F = Kft_framework.Framework
module V = Kft_verify.Verify

let failures = ref 0

let check what (r : V.report) =
  let s = r.stats in
  let ok = V.is_clean r in
  Printf.printf "%-28s %s  (%d launches, %d/%d bounds proved, %d/%d races proved)\n"
    what
    (if ok then "clean" else if s.bounds_fallback = 0 && s.races_fallback = 0 then "DEFECTS" else "UNPROVED")
    s.launches_checked s.bounds_proved
    (s.bounds_proved + s.bounds_fallback)
    s.races_proved
    (s.races_proved + s.races_fallback);
  if not ok then begin
    incr failures;
    List.iter (fun d -> Printf.printf "    %s\n" (V.pp_diagnostic d)) r.diagnostics
  end

(* the quickstart kernels at their own launch shape: block 16x8, c = 0.1 *)
let quickstart_program () =
  let open Kft_cuda.Ast in
  let nx, ny, nz = (64, 16, 12) in
  let kernels = Kft_cuda.Parse.kernels Kft_apps.Apps.quickstart_source in
  let arrays =
    List.map
      (fun a -> { a_name = a; a_elem_ty = Double; a_dims = [ nx; ny; nz ] })
      [ "U"; "V"; "W"; "U2" ]
  in
  let launch kernel args =
    Launch
      {
        l_kernel = kernel;
        l_domain = (nx, ny, 1);
        l_block = (16, 8, 1);
        l_args = args @ [ Arg_int nx; Arg_int ny; Arg_int nz; Arg_double 0.1 ];
      }
  in
  {
    p_name = "quickstart";
    p_arrays = arrays;
    p_kernels = kernels;
    p_schedule =
      [
        launch "diffuse" [ Arg_array "U"; Arg_array "V" ];
        launch "smooth" [ Arg_array "V"; Arg_array "U"; Arg_array "W" ];
        launch "relax" [ Arg_array "W"; Arg_array "U2" ];
      ];
  }

let small_config =
  {
    F.default_config with
    verify_mode = F.Verify_fatal;
    gga_params = { Kft_gga.Gga.default_params with population = 12; generations = 10 };
  }

let () =
  check "examples/quickstart" (V.verify_program (quickstart_program ()));
  let apps = Kft_apps.Apps.all () in
  List.iter
    (fun (a : Kft_apps.Apps.app) -> check (a.app_name ^ " (source)") (V.verify_program a.program))
    apps;
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      let rep = F.transform ~config:small_config a.program in
      check (a.app_name ^ " (transformed)") rep.verify_report;
      if rep.rejected_groups <> [] then begin
        incr failures;
        List.iter
          (fun (k, why) -> Printf.printf "    rejected %s: %s\n" k why)
          rep.rejected_groups
      end;
      match rep.verified with
      | Ok () -> ()
      | Error diffs ->
          incr failures;
          Printf.printf "    simulator verification failed on %s\n"
            (String.concat "," (List.map fst diffs)))
    apps;
  if !failures > 0 then begin
    Printf.printf "verify: %d failures\n" !failures;
    exit 1
  end
  else print_endline "verify: all clean"
