(* Weather-model walkthrough: the SCALE-LES-like application through the
   full pipeline, dumping every intermediate artifact the paper lets the
   programmer inspect and amend (Figure 2):

   - the three metadata text files,
   - the DDG and OEG in GraphViz DOT,
   - the per-stage report,
   - the generated CUDA for the largest fused kernel.

   Artifacts are written under _artifacts/weather/. Run with:

     dune exec examples/weather_model.exe
*)

let out_dir = "_artifacts/weather"

let write path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
  Printf.printf "wrote %s\n" path

let () =
  let app = (Kft_apps.Apps.scale_les ()).program in
  let config =
    {
      Kft_framework.Framework.default_config with
      device = Kft_apps.Apps.bench_device;
      gga_params = { Kft_gga.Gga.default_params with generations = 100; population = 40 };
    }
  in
  let report = Kft_framework.Framework.transform ~config app in
  (try Unix.mkdir "_artifacts" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Kft_metadata.Metadata.to_files report.metadata ~dir:out_dir;
  Printf.printf "wrote %s/{performance,operations,device}.meta\n" out_dir;
  write (Filename.concat out_dir "ddg.dot") (Kft_ddg.Ddg.ddg_dot report.graphs);
  write (Filename.concat out_dir "oeg.dot") (Kft_ddg.Ddg.oeg_dot report.graphs);
  write (Filename.concat out_dir "oeg_new.dot") (Kft_ddg.Ddg.oeg_dot (Kft_ddg.Ddg.build report.transformed));
  write
    (Filename.concat out_dir "transformed.cu")
    (Kft_cuda.Pp.program report.transformed);
  print_newline ();
  print_string (Kft_framework.Framework.stage_report report);
  (* show the largest generated kernel, the way a programmer would review
     it before compiling with nvcc *)
  let largest =
    List.fold_left
      (fun acc (rep : Kft_codegen.Codegen.kernel_report) ->
        match acc with
        | Some (best : Kft_codegen.Codegen.kernel_report)
          when List.length best.members >= List.length rep.members ->
            acc
        | _ -> Some rep)
      None report.codegen.reports
  in
  match largest with
  | Some rep when List.length rep.members > 1 ->
      Printf.printf "\n=== largest fused kernel (%s <- %s) ===\n" rep.new_kernel
        (String.concat ", " rep.members);
      let k = Kft_cuda.Ast.find_kernel report.transformed rep.new_kernel in
      print_string (Kft_cuda.Pp.kernel k)
  | _ -> print_endline "no fused kernels were generated"
