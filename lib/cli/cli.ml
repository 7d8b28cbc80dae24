(* Command-line terms for the kft / kft-transform binaries.

   The binaries under bin/ are one-line wrappers over this library so
   the CLI smoke tests can evaluate the exact production terms
   in-process with [Cmd.eval ~argv] and capture their output, instead
   of depending on installed executables.  Nothing here calls [exit];
   every action returns the process exit code. *)

open Cmdliner
module L = Kft_absint.Lint
module Trace = Kft_trace.Trace

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* ------------------------------------------------------------------ *)
(* program selection                                                   *)
(* ------------------------------------------------------------------ *)

(* what kft lint, kft schedflow and kft-transform --list know: the
   quickstart program plus the six bundled applications *)
let bundled_apps () = Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ()

let app_name (a : Kft_apps.Apps.app) = a.program.Kft_cuda.Ast.p_name

(* Run [f] on the programs [-a] names (every bundled program when it
   names none), in bundled order, with a trace named [tool] when
   [--trace FILE] is given; FILE is written once [f] has returned its
   exit code. An unknown name exits 2 before anything runs. *)
let with_programs ~cmd ~tool only trace_file f =
  let apps = bundled_apps () in
  match List.filter (fun n -> not (List.exists (fun a -> app_name a = n) apps)) only with
  | _ :: _ as bad ->
      Printf.eprintf "kft %s: unknown program%s %s (have: %s)\n" cmd
        (if List.length bad = 1 then "" else "s")
        (String.concat ", " bad)
        (String.concat ", " (List.map app_name apps));
      2
  | [] ->
      let apps =
        if only = [] then apps else List.filter (fun a -> List.mem (app_name a) only) apps
      in
      let trace = Option.map (fun _ -> Trace.create tool) trace_file in
      let rc = f trace (List.map (fun (a : Kft_apps.Apps.app) -> a.program) apps) in
      (match (trace_file, trace) with
      | Some path, Some t -> write_file path (Trace.render_json t)
      | _ -> ());
      rc

(* one program per task on [jobs] worker domains; results come back in
   input order, so every rendering is identical at any [jobs] *)
let map_programs ~jobs f progs =
  Kft_engine.Engine.with_engine ~jobs ~memo:false (fun e -> Kft_engine.Engine.map e f progs)

(* ------------------------------------------------------------------ *)
(* kft lint                                                            *)
(* ------------------------------------------------------------------ *)

let lint_run json jobs strict no_profile only trace_file =
  with_programs ~cmd:"lint" ~tool:"kft-lint" only trace_file @@ fun trace progs ->
  let lint (p : Kft_cuda.Ast.program) =
    let measured =
      if no_profile then []
      else Kft_sim.Profiler.(traffic_by_kernel (profile Kft_device.Device.k20x p))
    in
    L.program ~measured p
  in
  let findings =
    Trace.with_span trace "lint" (fun () ->
        let per_program = map_programs ~jobs lint progs in
        (* per-program child spans carry the per-rule counters; the
           batch above already ran, so these record counts only
           (their wall clock is a side channel anyway) *)
        List.iter2
          (fun (p : Kft_cuda.Ast.program) mine ->
            Trace.with_span trace ("lint:" ^ p.p_name) (fun () ->
                List.iter (fun (rule, n) -> Trace.add trace rule n) (L.rule_counts mine);
                Trace.add trace "findings" (List.length mine)))
          progs per_program;
        let fs = L.normalize (List.concat per_program) in
        Trace.add trace "warnings" (L.warnings fs);
        Trace.add trace "infos" (L.infos fs);
        Trace.note trace "jobs" (Trace.Int jobs);
        fs)
  in
  print_string (if json then L.render_json findings else L.render_human findings);
  if L.warnings findings > 0 || (strict && L.infos findings > 0) then 1 else 0

let lint_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as one JSON document (stable field order, byte-identical across $(b,--jobs) settings).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Analyze programs on $(docv) worker domains. The output is identical at any worker count.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit non-zero on advisory (info) findings too, not just warnings.")
  in
  let no_profile =
    Arg.(value & flag & info [ "no-profile" ] ~doc:"Skip the simulator pre-run; disables the footprint-drift cross-check.")
  in
  let only =
    Arg.(value & opt_all string [] & info [ "a"; "app" ] ~docv:"NAME" ~doc:"Lint only the named program(s); repeatable. Default: quickstart plus all bundled applications.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write a deterministic machine-JSON trace (kft_trace) with per-program, per-rule finding counters.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static diagnostics from the abstract-interpretation analyzer"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs kft_absint over every launch of every selected program and \
              reports: unprovable or out-of-bounds accesses ($(b,bounds)), \
              global accesses with a non-unit threadIdx.x stride \
              ($(b,uncoalesced)), shared-memory bank conflicts \
              ($(b,bank-conflict)), static/measured traffic disagreements \
              ($(b,footprint-drift)), undecidable thread-dependent guards \
              ($(b,divergent-guard)) and statically decided guards \
              ($(b,dead-guard)).";
           `P "Exits 1 if any warning is found (with $(b,--strict), any finding).";
         ])
    Term.(const lint_run $ json $ jobs $ strict $ no_profile $ only $ trace_file)

(* ------------------------------------------------------------------ *)
(* kft schedflow                                                       *)
(* ------------------------------------------------------------------ *)

module Sf = Kft_schedflow.Schedflow

let schedflow_run json jobs strict only trace_file =
  with_programs ~cmd:"schedflow" ~tool:"kft-schedflow" only trace_file @@ fun trace progs ->
  let analyses =
    Trace.with_span trace "schedflow" (fun () ->
        let ts = map_programs ~jobs Sf.analyze progs in
        List.iter
          (fun (sf : Sf.t) ->
            Trace.with_span trace ("schedflow:" ^ sf.Sf.program.Kft_cuda.Ast.p_name)
              (fun () ->
                let s = sf.Sf.stats in
                Trace.add trace "ops" s.Sf.st_ops;
                Trace.add trace "launches" s.st_launches;
                Trace.add trace "arrays" s.st_arrays;
                Trace.add trace "deps" s.st_deps;
                Trace.add trace "deps_refined" s.st_deps_refined;
                Trace.add trace "regions_proved" s.st_regions_proved;
                Trace.add trace "regions_fallback" s.st_regions_fallback;
                Trace.add trace "issues" (List.length sf.Sf.issues);
                Trace.add trace "findings" (List.length (Sf.lint sf))))
          ts;
        Trace.note trace "jobs" (Trace.Int jobs);
        ts)
  in
  print_string
    (if json then Sf.render_json analyses
     else String.concat "" (List.map Sf.render_human analyses));
  let findings = L.normalize (List.concat_map Sf.lint analyses) in
  let issues = List.concat_map (fun (sf : Sf.t) -> sf.Sf.issues) analyses in
  if issues <> [] || L.warnings findings > 0 || (strict && L.infos findings > 0) then 1
  else 0

let schedflow_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the analysis as one JSON document (stable field order, byte-identical across $(b,--jobs) settings).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Analyze programs on $(docv) worker domains. The output is identical at any worker count.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit non-zero on advisory (info) findings too, not just dataflow issues and warnings.")
  in
  let only =
    Arg.(value & opt_all string [] & info [ "a"; "app" ] ~docv:"NAME" ~doc:"Analyze only the named program(s); repeatable. Default: quickstart plus all bundled applications.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write a deterministic machine-JSON trace (kft_trace) with per-program dataflow counters.")
  in
  Cmd.v
    (Cmd.info "schedflow"
       ~doc:"Whole-schedule inter-kernel dataflow and liveness analysis"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds the array-granularity schedule dependence graph of every \
              selected program: per-operation read/write sets (element regions \
              where the abstract domain proves them, whole arrays otherwise), \
              per-array liveness intervals, RAW/WAR/WAW dependences, and the \
              dataflow issues (non-input arrays read before any write, stores \
              never read back). Also reports the schedule-level lint rules: \
              arrays that are dead end-to-end ($(b,dead-array)), pure \
              copy launches whose proved footprints match ($(b,redundant-copy)) \
              and single-use temporaries that could live in faster storage \
              ($(b,transient-global)).";
           `P
             "Exits 1 on any dataflow issue or warning finding (with \
              $(b,--strict), any finding).";
         ])
    Term.(const schedflow_run $ json $ jobs $ strict $ only $ trace_file)

let kft_cmd =
  Cmd.group
    (Cmd.info "kft" ~version:"1.0.0"
       ~doc:"Static analysis companion tools for the transformation framework")
    [ lint_cmd; schedflow_cmd ]

let kft_main ?argv () = Cmd.eval' ?argv kft_cmd

(* ------------------------------------------------------------------ *)
(* kft-transform                                                       *)
(* ------------------------------------------------------------------ *)

let list_apps () =
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      Printf.printf "%-13s %3d kernels, %3d arrays  -- %s\n" a.app_name
        (List.length a.program.p_kernels)
        (List.length a.program.p_arrays)
        a.description)
    (bundled_apps ())

let transform_run app_name device_name generations population jobs no_memo
    no_fission no_tuning expert_codegen filter_mode verify_mode seed out_dir emit_cuda quiet
    list trace_file chrome_file backend =
  if list then begin
    list_apps ();
    `Ok ()
  end
  else
    match Kft_apps.Apps.by_name app_name with
    | None ->
        `Error (false, Printf.sprintf "unknown application %S (try --list)" app_name)
    | Some app -> (
        match Kft_device.Device.by_name device_name with
        | None -> `Error (false, Printf.sprintf "unknown device %S" device_name)
        | Some base_device ->
            let device =
              (* the bundled apps are scaled down; scale the launch
                 overhead with them (see DESIGN.md) *)
              { base_device with kernel_launch_overhead_us = 0.3 }
            in
            let codegen_options =
              let base =
                if expert_codegen then Kft_codegen.Fusion.manual_options
                else Kft_codegen.Fusion.auto_options
              in
              { base with tune_blocks = not no_tuning }
            in
            let config =
              {
                Kft_framework.Framework.default_config with
                device;
                filter_mode;
                verify_mode;
                codegen_options;
                seed;
                gga_params =
                  {
                    Kft_gga.Gga.default_params with
                    generations;
                    population;
                    fission_enabled = not no_fission;
                    seed;
                  };
                backend;
              }
            in
            let trace =
              match (trace_file, chrome_file) with
              | None, None -> None
              | _ -> Some (Trace.create "kft-transform")
            in
            let report =
              Kft_engine.Engine.with_engine ~jobs ~memo:(not no_memo) (fun engine ->
                  Kft_framework.Framework.transform ~config ~engine ?trace app.program)
            in
            if not quiet then print_string (Kft_framework.Framework.stage_report report);
            (match (trace_file, trace) with
            | Some path, Some t ->
                write_file path (Trace.render_json t);
                if not quiet then Printf.printf "trace written to %s\n" path
            | _ -> ());
            (match (chrome_file, trace) with
            | Some path, Some t ->
                write_file path (Trace.render_chrome t);
                if not quiet then Printf.printf "chrome trace written to %s\n" path
            | _ -> ());
            (match out_dir with
            | Some dir ->
                if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
                Kft_metadata.Metadata.to_files report.metadata ~dir;
                let write name contents =
                  write_file (Filename.concat dir name) contents
                in
                let new_graphs = Kft_ddg.Ddg.build report.transformed in
                write "ddg.dot" (Kft_ddg.Ddg.ddg_dot report.graphs);
                write "oeg.dot" (Kft_ddg.Ddg.oeg_dot report.graphs);
                write "ddg_new.dot" (Kft_ddg.Ddg.ddg_dot new_graphs);
                write "oeg_new.dot" (Kft_ddg.Ddg.oeg_dot new_graphs);
                write "gga.params" (Kft_gga.Gga.params_to_text config.gga_params);
                Printf.printf "stage artifacts written to %s/\n" dir
            | None -> ());
            (match emit_cuda with
            | Some path ->
                write_file path (Kft_cuda.Pp.program report.transformed);
                Printf.printf "transformed CUDA written to %s\n" path
            | None -> ());
            List.iter
              (fun d ->
                Printf.eprintf "kft-transform: [verify] %s\n"
                  (Kft_verify.Verify.pp_diagnostic d))
              report.verify_report.diagnostics;
            (match report.verified with
            | Ok () -> (
                match (verify_mode, Kft_verify.Verify.is_clean report.verify_report) with
                | Kft_framework.Framework.Verify_fatal, false ->
                    `Error
                      ( false,
                        Printf.sprintf "static verification found %d defects"
                          (List.length report.verify_report.diagnostics) )
                | _ -> `Ok ())
            | Error diffs ->
                `Error
                  ( false,
                    Printf.sprintf "output verification failed on %d arrays"
                      (List.length diffs) )))

let transform_cmd =
  let app_arg =
    Arg.(value & opt string "MITgcm" & info [ "a"; "app" ] ~docv:"NAME" ~doc:"Application to transform (see --list).")
  in
  let device =
    Arg.(value & opt string "Tesla K20X" & info [ "device" ] ~docv:"NAME" ~doc:"Target device model (Tesla K20X, Tesla K40, Generic Kepler).")
  in
  let generations =
    Arg.(value & opt int 150 & info [ "generations" ] ~doc:"GGA generations (paper default: 500).")
  in
  let population =
    Arg.(value & opt int 40 & info [ "population" ] ~doc:"GGA population size (paper default: 100).")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains shared by the GGA search and the simulator (profiling, verification and usage pre-runs fan each launch's thread blocks over the pool). Results are bit-identical at any worker count (the paper uses 8 Xeon cores).")
  in
  let no_memo =
    Arg.(value & flag & info [ "no-memo" ] ~doc:"Disable the genome-keyed fitness memo cache (ablation; results are unchanged, only slower).")
  in
  let no_fission = Arg.(value & flag & info [ "no-fission" ] ~doc:"Disable lazy kernel fission.") in
  let no_tuning =
    Arg.(value & flag & info [ "no-tuning" ] ~doc:"Disable thread-block-size tuning.")
  in
  let expert =
    Arg.(value & flag & info [ "expert-codegen" ] ~doc:"Use the expert (hand-fusion-style) code generation switches.")
  in
  let filter =
    let modes = Kft_framework.Framework.[ ("auto", Automated); ("manual", Manual); ("none", No_filtering) ] in
    Arg.(value & opt (enum modes) Kft_framework.Framework.Automated & info [ "filter" ] ~docv:"auto|manual|none" ~doc:"Target-filtering mode.")
  in
  let verify =
    let modes = Kft_framework.Framework.[ ("off", Verify_off); ("advisory", Verify_advisory); ("fatal", Verify_fatal) ] in
    Arg.(value & opt (enum modes) Kft_framework.Framework.Verify_advisory & info [ "verify" ] ~docv:"off|advisory|fatal" ~doc:"Static race/barrier/bounds verification and translation validation of the generated kernels: record diagnostics (advisory), reject flagged fused groups and fail on residual defects (fatal), or skip (off).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed (GGA + data).") in
  let out_dir =
    Arg.(value & opt (some string) None & info [ "o"; "artifacts" ] ~docv:"DIR" ~doc:"Dump stage artifacts (metadata files, DOT graphs, GGA parameters).")
  in
  let emit_cuda =
    Arg.(value & opt (some string) None & info [ "emit-cuda" ] ~docv:"FILE" ~doc:"Write the transformed CUDA program.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the stage report.") in
  let list = Arg.(value & flag & info [ "list" ] ~doc:"List bundled applications and exit.") in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write the pipeline trace as deterministic machine JSON (kft_trace): hierarchical stage spans with counters, byte-identical at any $(b,--jobs) value.")
  in
  let chrome_file =
    Arg.(value & opt (some string) None & info [ "trace-chrome" ] ~docv:"FILE" ~doc:"Write the pipeline trace in Chrome trace_event format; load it in about:tracing or Perfetto.")
  in
  let backend =
    let paths = Kft_sim.Interp.[ ("affine", Affine); ("interp", Interpret) ] in
    Arg.(value & opt (enum paths) Kft_sim.Interp.Affine & info [ "backend" ] ~docv:"affine|interp" ~doc:"Simulator execution path for every pipeline run: $(b,affine), the compiled-affine fast path, or $(b,interp), the reference interpreter. Both produce bit-identical results.")
  in
  let term =
    Term.ret
      Term.(
        const transform_run $ app_arg $ device $ generations $ population $ jobs $ no_memo
        $ no_fission $ no_tuning $ expert $ filter $ verify $ seed $ out_dir
        $ emit_cuda $ quiet $ list $ trace_file $ chrome_file $ backend)
  in
  Cmd.v
    (Cmd.info "kft-transform" ~version:"1.0.0"
       ~doc:"Automated GPU kernel fusion/fission transformation framework")
    term

let transform_main ?argv () = Cmd.eval ?argv transform_cmd
