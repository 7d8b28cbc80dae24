(* Golden bit-exactness regression.

   Pins the GGA search outcome (best fitness, fusion groups, fissioned
   set) and its internal counts (computed evaluations, group verdicts,
   fusion plans) for the quickstart example and four of the six
   applications at a fixed small budget. The engine determinism
   contract says these values are a pure function of (program, params,
   seed) — independent of the worker count and of whether the memo cache
   is on — so any drift here means a behavioural change in the search,
   the performance model, or the frontend, and the goldens must be
   re-derived consciously.

   To re-derive: run the suite; the Alcotest diff prints the actual
   rendered summary, which becomes the new golden string. *)

module F = Kft_framework.Framework
module Apps = Kft_apps.Apps
open Kft_cuda.Ast

(* Same three-kernel program as examples/quickstart.ml. *)
let quickstart_source =
  {|
__global__ void diffuse(const double *U, double *V, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 1; k < nz - 1; k++) {
      V[(k * ny + j) * nx + i] = c * (U[(k * ny + j) * nx + i + 1] + U[(k * ny + j) * nx + i - 1]
        + U[(k * ny + (j + 1)) * nx + i] + U[(k * ny + (j - 1)) * nx + i]
        + U[((k + 1) * ny + j) * nx + i] + U[((k - 1) * ny + j) * nx + i]
        - 6.0 * U[(k * ny + j) * nx + i]);
    }
  }
}
__global__ void smooth(const double *V, const double *U, double *W, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 2 && i < nx - 2 && j >= 2 && j < ny - 2) {
    for (int k = 2; k < nz - 2; k++) {
      W[(k * ny + j) * nx + i] = 0.25 * (V[(k * ny + j) * nx + i + 1] + V[(k * ny + j) * nx + i - 1]
        + V[(k * ny + (j + 1)) * nx + i] + V[(k * ny + (j - 1)) * nx + i])
        + c * U[(k * ny + j) * nx + i];
    }
  }
}
__global__ void relax(const double *W, double *U2, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      U2[(k * ny + j) * nx + i] = c * W[(k * ny + j) * nx + i];
    }
  }
}
|}

let quickstart_program () =
  let nx, ny, nz = (64, 16, 12) in
  let kernels = Kft_cuda.Parse.kernels quickstart_source in
  let arr name = { a_name = name; a_elem_ty = Double; a_dims = [ nx; ny; nz ] } in
  let dims_args = [ Arg_int nx; Arg_int ny; Arg_int nz; Arg_double 0.125 ] in
  let launch kernel args =
    Launch { l_kernel = kernel; l_domain = (nx, ny, 1); l_block = (32, 4, 1); l_args = args }
  in
  {
    p_name = "quickstart";
    p_arrays = [ arr "U"; arr "V"; arr "W"; arr "U2" ];
    p_kernels = kernels;
    p_schedule =
      [
        launch "diffuse" ([ Arg_array "U"; Arg_array "V" ] @ dims_args);
        launch "smooth" ([ Arg_array "V"; Arg_array "U"; Arg_array "W" ] @ dims_args);
        launch "relax" ([ Arg_array "W"; Arg_array "U2" ] @ dims_args);
      ];
  }

(* Fixed small budget: large enough that the search does real work
   (crossover, mutation, fission decisions), small enough for tier-1. *)
let config =
  {
    F.default_config with
    gga_params =
      { Kft_gga.Gga.default_params with generations = 10; population = 12; seed = 20260806 };
  }

(* the search's internal counts are pinned too: distinct genomes scored,
   distinct groups given a verdict and fusion plans built *)
let render trace (report : F.report) =
  let b = Buffer.create 256 in
  (match report.gga with
  | None -> Buffer.add_string b "gga=none\n"
  | Some r ->
      Buffer.add_string b (Printf.sprintf "fitness=%.17g\n" r.best.fitness);
      Buffer.add_string b
        (Printf.sprintf "violations=%d evaluations=%d\n" r.best.violations r.evaluations);
      Buffer.add_string b
        (Printf.sprintf "computed=%d verdicts=%d plans=%d\n" r.engine_stats.es_computed
           r.engine_stats.es_verdicts
           (List.assoc "plan_cache_entries" (Kft_trace.Trace.counters trace "search"))));
  Buffer.add_string b
    (Printf.sprintf "groups=%s\n"
       (String.concat " " (List.map (String.concat "+") report.solution_groups)));
  Buffer.add_string b
    (Printf.sprintf "fissioned=%s\n" (String.concat "," report.fissioned));
  Buffer.contents b

(* [fissions] adds the search's lazy-fission event count to the pin *)
let check_golden ?(config = config) ?(fissions = false) name program golden () =
  let trace = Kft_trace.Trace.create name in
  let report = F.transform ~config ~trace program in
  let events =
    match report.gga with
    | Some r when fissions -> Printf.sprintf "fission_events=%d\n" r.fission_events
    | _ -> ""
  in
  Alcotest.(check string) (name ^ " search outcome pinned") golden (render trace report ^ events)

let quickstart_golden =
  "fitness=11.939180487292035\n" ^ "violations=0 evaluations=112\n"
  ^ "computed=5 verdicts=7 plans=4\n"
  ^ "groups=diffuse+relax+smooth\n" ^ "fissioned=\n"

let mitgcm_golden =
  "fitness=7.0158016449894038\n" ^ "violations=0 evaluations=112\n"
  ^ "computed=34 verdicts=72 plans=58\n"
  ^ "groups=axpy_01+lap_01 axpy_02+lap_03 axpy_03 axpy_04 axpy_05 axpy_06+lap_07 axpy_07 \
     lap_02 lap_04 lap_05 lap_06\n" ^ "fissioned=\n"

let fluam_golden =
  "fitness=5.0422491561703335\n" ^ "violations=0 evaluations=112\n"
  ^ "computed=47 verdicts=211 plans=169\n"
  ^ "groups=acc_01 acc_02 acc_03 acc_04 acc_05 acc_06 acc_07 acc_08 acc_09 acc_10 fvol_01 \
     fvol_02+rk_08 fvol_03 fvol_04 fvol_05+fvol_06 fvol_07 fvol_08 fvol_09 fvol_10 part_01 \
     part_02 part_03 part_04 part_05 part_06 part_07 part_08 part_09 part_10 part_11 part_12 \
     rk_01 rk_02 rk_03 rk_04 rk_05 rk_06 rk_07 rk_09 rk_10\n" ^ "fissioned=\n"

(* SCALE-LES has the most fusion candidates of the six applications, so
   its search issues the most OEG legality queries; pinned at a larger
   budget than the others so those queries cover many candidate groups. *)
let scale_les_config =
  {
    config with
    gga_params = { config.gga_params with generations = 20; population = 20 };
  }

let scale_les_golden =
  "fitness=10.607728507775059\n" ^ "violations=0 evaluations=380\n"
  ^ "computed=217 verdicts=749 plans=658\n"
  ^ "groups=flux_01+flux_10 flux_02 flux_03 flux_04+flux_05+tend_25 flux_06 flux_07+upd_08 \
     flux_08+flux_09+tend_15+tend_17 flux_11 flux_12+tend_03 flux_13 flux_14+upd_17 \
     flux_15+tend_04 flux_16+upd_27 flux_17 flux_18 flux_19+tend_10 flux_20 flux_21 \
     flux_22 flux_23 flux_24+upd_10 flux_25 flux_26+tend_06+upd_12 flux_27 \
     flux_28+tend_28+upd_22 tend_01+upd_01 tend_02 tend_05 tend_07+tend_12+tend_27 \
     tend_08+upd_11 tend_09+upd_03 tend_11 tend_13 tend_14 tend_16 tend_18+upd_09 \
     tend_19+upd_14 tend_20 tend_21 tend_22 tend_23+upd_02 tend_24 tend_26 upd_04 \
     upd_05+upd_16 upd_06 upd_07 upd_13 upd_15 upd_18 upd_19 upd_20 upd_21 upd_23 \
     upd_24 upd_25 upd_26 upd_28 vint_01 vint_02 vint_03 vint_04 vint_05 vint_06 \
     vint_07\n" ^ "fissioned=\n"

(* B-CALM's search fissions kernels at the shared [config]: the one
   golden that pins the lazy-fission path *)
let bcalm_golden =
  "fitness=21.335456312465105\n" ^ "violations=0 evaluations=112\n"
  ^ "computed=52 verdicts=195 plans=167\n"
  ^ "groups=flux_e+flux_h+pole_d pole_a__f1+pole_b__f1+pole_c__f1 pole_a__f2+pole_b__f2+pole_c__f2 \
     pole_a__f3+pole_b__f3+pole_c__f3 upd_e__f1+upd_e__f2+upd_e__f3+upd_h__f1+upd_h__f2+upd_h__f3\n"
  ^ "fissioned=pole_a,pole_b,pole_c,upd_e,upd_h\n" ^ "fission_events=39\n"

let suite =
  [
    Alcotest.test_case "quickstart golden" `Quick
      (fun () -> check_golden "quickstart" (quickstart_program ()) quickstart_golden ());
    Alcotest.test_case "MITgcm golden" `Quick
      (fun () -> check_golden "mitgcm" (Apps.mitgcm ()).program mitgcm_golden ());
    Alcotest.test_case "Fluam golden" `Quick
      (fun () -> check_golden "fluam" (Apps.fluam ()).program fluam_golden ());
    Alcotest.test_case "SCALE-LES golden" `Quick
      (fun () ->
        check_golden ~config:scale_les_config "scale-les" (Apps.scale_les ()).program
          scale_les_golden ());
    Alcotest.test_case "B-CALM golden" `Quick
      (fun () -> check_golden ~fissions:true "b-calm" (Apps.bcalm ()).program bcalm_golden ());
  ]
