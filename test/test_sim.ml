(* GPU simulator: memory, interpreter semantics, statistics, timing. *)

open Kft_cuda.Ast
module Mem = Kft_sim.Memory
module I = Kft_sim.Interp
module T = Kft_sim.Timing

let dims = (16, 8, 4)
let cells = 16 * 8 * 4

let one_kernel_prog src name args_arrays coef =
  let k = Kft_cuda.Parse.kernel src in
  {
    p_name = "t";
    p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "C" ];
    p_kernels = [ k ];
    p_schedule =
      [
        Launch
          { l_kernel = name; l_domain = (16, 8, 1); l_block = (8, 4, 1);
            l_args = Util.std_args dims args_arrays coef };
      ];
  }

let test_memory_basics () =
  let mem = Mem.create [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
  Alcotest.(check (list string)) "names" [ "A"; "B" ] (Mem.names mem);
  Alcotest.(check int) "length" cells (Bigarray.Array1.dim (Mem.get mem "A"));
  Alcotest.(check bool) "dims" true (Mem.dims mem "A" = [ 16; 8; 4 ]);
  Util.check_float "zero init" 0.0 (Mem.get mem "A").{0}

let test_memory_seeded_deterministic () =
  let mem1 = Mem.create [ Util.arr3 dims "A" ] and mem2 = Mem.create [ Util.arr3 dims "A" ] in
  Mem.init_seeded mem1 ~seed:7;
  Mem.init_seeded mem2 ~seed:7;
  Alcotest.(check bool) "same fill" true (Mem.bits_equal mem1 mem2);
  Mem.init_seeded mem2 ~seed:8;
  Alcotest.(check bool) "different seed differs" false (Mem.bits_equal mem1 mem2);
  Alcotest.(check bool) "no zeros" true (Array.for_all (fun v -> v <> 0.0) (Mem.get_array mem1 "A"))

let test_memory_diff () =
  let mem1 = Mem.create [ Util.arr3 dims "A" ] and mem2 = Mem.create [ Util.arr3 dims "A" ] in
  (Mem.get mem2 "A").{5} <- 3.5;
  (match Mem.max_abs_diff mem1 mem2 with
  | [ ("A", d) ] -> Util.check_float "max diff" 3.5 d
  | _ -> Alcotest.fail "diff shape");
  Alcotest.(check (list string)) "differs beyond 1" [ "A" ]
    (List.map fst (Kft_sim.Profiler.output_diffs ~tol:1.0 mem1 mem2));
  Alcotest.(check (list string)) "agrees within 4" []
    (List.map fst (Kft_sim.Profiler.output_diffs ~tol:4.0 mem1 mem2))

(* bit identity is not the tolerance check of output verification:
   -0.0 and 0.0 differ, a NaN equals itself, and both memories must hold
   the same arrays. The tolerance check must not let a NaN pass against
   a number. *)
let test_memory_bits_equal () =
  let pair a b =
    let m1 = Mem.create [ Util.arr3 dims "A" ] and m2 = Mem.create [ Util.arr3 dims "A" ] in
    (Mem.get m1 "A").{3} <- a;
    (Mem.get m2 "A").{3} <- b;
    (m1, m2)
  in
  let within ~tol m1 m2 = Kft_sim.Profiler.output_diffs ~tol m1 m2 = [] in
  let m1, m2 = pair (-0.0) 0.0 in
  Alcotest.(check bool) "-0.0 vs 0.0 within tolerance 0" true (within ~tol:0.0 m1 m2);
  Alcotest.(check bool) "-0.0 vs 0.0 differ bitwise" false (Mem.bits_equal m1 m2);
  let m1, m2 = pair Float.nan 1.0 in
  Alcotest.(check bool) "NaN vs 1.0 fails any tolerance" false (within ~tol:1e12 m1 m2);
  Alcotest.(check bool) "NaN vs 1.0 differ bitwise" false (Mem.bits_equal m1 m2);
  let m1, m2 = pair Float.nan Float.nan in
  Alcotest.(check bool) "NaN vs NaN within tolerance 0" true (within ~tol:0.0 m1 m2);
  Alcotest.(check bool) "NaN vs NaN equal bitwise" true (Mem.bits_equal m1 m2);
  let m3 = Mem.create [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
  Alcotest.(check bool) "different arrays differ" false (Mem.bits_equal m1 m3)

let test_pointwise_execution () =
  let prog = one_kernel_prog (Util.pointwise_src ~name:"pw" ~a:"A" ~b:"B" ~dst:"C") "pw"
      [ "A"; "B"; "C" ] 0.5 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:1;
  let a = Mem.get_array mem "A" and b = Mem.get_array mem "B" in
  let stats = I.launch mem prog (Util.launch_of prog "pw") in
  let c = Mem.get_array mem "C" in
  Array.iteri (fun i av -> Util.check_float "c = 0.5(a+b)" (0.5 *. (av +. b.(i))) c.(i)) a;
  Alcotest.(check int) "write bytes" (cells * 8) stats.global_write_bytes;
  Alcotest.(check int) "read bytes" (cells * 2 * 8) stats.global_read_bytes;
  Util.check_float "flops (2 per cell)" (float_of_int (2 * cells)) stats.flops

let test_stencil_execution () =
  (* 5-point horizontal stencil checked against a reference loop *)
  let prog =
    one_kernel_prog
      (Util.stencil_src ~name:"st" ~src:"A" ~dst:"B" ~margin:1 ~threed:false)
      "st" [ "A"; "B" ] 0.25
  in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:2;
  let a = Mem.get_array mem "A" in
  let b0 = Mem.get_array mem "B" in
  ignore (I.launch mem prog (Util.launch_of prog "st"));
  let b = Mem.get_array mem "B" in
  let nx, ny, _ = dims in
  let idx i j k = ((k * ny) + j) * nx + i in
  for k = 0 to 3 do
    for j = 1 to ny - 2 do
      for i = 1 to nx - 2 do
        let expect =
          0.25 *. (a.(idx (i + 1) j k) +. a.(idx (i - 1) j k) +. a.(idx i (j + 1) k) +. a.(idx i (j - 1) k))
        in
        Util.check_float "stencil cell" expect b.(idx i j k)
      done
    done
  done;
  (* guarded boundary cells keep their previous contents *)
  Util.check_float "boundary untouched" b0.(idx 0 0 0) b.(idx 0 0 0)

let test_guard_divergence_counted () =
  let prog =
    one_kernel_prog
      (Util.stencil_src ~name:"st" ~src:"A" ~dst:"B" ~margin:1 ~threed:false)
      "st" [ "A"; "B" ] 0.25
  in
  let mem = Mem.create prog.p_arrays in
  let stats = I.launch mem prog (Util.launch_of prog "st") in
  Alcotest.(check bool) "cond evals counted" true (stats.warp_cond_evals > 0);
  Alcotest.(check bool) "divergence observed" true (stats.divergent_warp_cond_evals > 0)

let test_out_of_bounds () =
  let src =
    {|
__global__ void oob(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      B[(k * ny + j) * nx + i] = A[(k * ny + j) * nx + i + 1];
    }
  }
}
|}
  in
  let prog = one_kernel_prog src "oob" [ "A"; "B" ] 1.0 in
  let mem = Mem.create prog.p_arrays in
  match I.launch mem prog (Util.launch_of prog "oob") with
  | (_ : I.stats) -> Alcotest.fail "expected out-of-bounds error"
  | exception I.Sim_error { kernel = "oob"; _ } -> ()

let test_syncthreads_staging () =
  (* shared-memory staging with a barrier: same result as direct reads *)
  let src =
    {|
__global__ void stage(const double *A, double *B, int nx, int ny, int nz, double c) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int i = blockIdx.x * blockDim.x + tx;
  int j = blockIdx.y * blockDim.y + ty;
  __shared__ double s[4][8];
  for (int k = 0; k < nz; k++) {
    if (i < nx && j < ny) {
      s[ty][tx] = A[(k * ny + j) * nx + i];
    }
    __syncthreads();
    if (i < nx && j < ny) {
      B[(k * ny + j) * nx + i] = c * s[ty][tx];
    }
    __syncthreads();
  }
}
|}
  in
  let prog = one_kernel_prog src "stage" [ "A"; "B" ] 2.0 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:3;
  let a = Mem.get_array mem "A" in
  let stats = I.launch mem prog (Util.launch_of prog "stage") in
  let b = Mem.get_array mem "B" in
  Array.iteri (fun i av -> Util.check_float "staged copy" (2.0 *. av) b.(i)) a;
  Alcotest.(check int) "shared bytes" (4 * 8 * 8) stats.shared_bytes_per_block;
  Alcotest.(check int) "no hazards with barrier" 0 stats.shared_hazards

let test_hazard_detection () =
  (* neighbour read of shared without a barrier: hazard flagged *)
  let src =
    {|
__global__ void racy(const double *A, double *B, int nx, int ny, int nz, double c) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int i = blockIdx.x * blockDim.x + tx;
  int j = blockIdx.y * blockDim.y + ty;
  __shared__ double s[4][8];
  for (int k = 0; k < nz; k++) {
    if (i < nx && j < ny) {
      s[ty][tx] = A[(k * ny + j) * nx + i];
    }
    if (i < nx && j < ny && tx > 0) {
      B[(k * ny + j) * nx + i] = c * s[ty][tx - 1];
    }
    __syncthreads();
  }
}
|}
  in
  let prog = one_kernel_prog src "racy" [ "A"; "B" ] 1.0 in
  let mem = Mem.create prog.p_arrays in
  let stats = I.launch mem prog (Util.launch_of prog "racy") in
  Alcotest.(check bool) "hazards detected" true (stats.shared_hazards > 0)

let test_barrier_divergence_rejected () =
  let src =
    {|
__global__ void baddiv(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < 3) {
    __syncthreads();
  }
  B[0] = c * A[0];
}
|}
  in
  let prog = one_kernel_prog src "baddiv" [ "A"; "B" ] 1.0 in
  let mem = Mem.create prog.p_arrays in
  match I.launch mem prog (Util.launch_of prog "baddiv") with
  | (_ : I.stats) -> Alcotest.fail "expected barrier divergence error"
  | exception I.Sim_error _ -> ()

let test_return_guard () =
  let src =
    {|
__global__ void early(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= nx) {
    return;
  }
  B[j * nx + i] = c * A[j * nx + i];
}
|}
  in
  let prog = one_kernel_prog src "early" [ "A"; "B" ] 3.0 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:4;
  let a = Mem.get_array mem "A" in
  ignore (I.launch mem prog (Util.launch_of prog "early"));
  Util.check_float "plane written" (3.0 *. a.(0)) (Mem.get mem "B").{0}

let test_schedule_runs_in_order () =
  let prog = Util.producer_consumer_program ~dims:(16, 8, 4) ~block:(8, 4, 1) () in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:5;
  let results = I.run_schedule mem prog in
  Alcotest.(check int) "two launches" 2 (List.length results);
  (* consume must see produce's B values: C = 0.5 * (B_new + A) *)
  let b = Mem.get_array mem "B" and a = Mem.get_array mem "A" and c = Mem.get_array mem "C" in
  Array.iteri (fun i bv -> Util.check_float "RAW respected" (0.5 *. (bv +. a.(i))) c.(i)) b

let mk_stats ?(read = 0) ?(write = 0) ?(flops = 0.0) ?(div = 0) ?(evals = 0) ?(blocks = 8)
    ?(threads = 256) () =
  {
    I.global_read_bytes = read;
    global_write_bytes = write;
    flops;
    warp_cond_evals = evals;
    divergent_warp_cond_evals = div;
    shared_hazards = 0;
    threads_launched = threads;
    threads_active = threads;
    shared_bytes_per_block = 0;
    blocks_launched = blocks;
  }

let evaluate stats =
  T.evaluate
    { device = Util.device; stats; block = (16, 8, 1); regs_per_thread = 32; dependent_chain = 5 }

let test_timing_memory_bound () =
  let b = evaluate (mk_stats ~read:1_000_000 ~write:1_000_000 ~flops:1000.0 ()) in
  Alcotest.(check bool) "memory dominates" true (b.memory_time_us > b.compute_time_us);
  Alcotest.(check bool) "runtime includes overhead" true
    (b.runtime_us >= Util.device.kernel_launch_overhead_us)

let test_timing_more_bytes_slower () =
  let t1 = (evaluate (mk_stats ~read:1_000_000 ())).runtime_us in
  let t2 = (evaluate (mk_stats ~read:4_000_000 ())).runtime_us in
  Alcotest.(check bool) "monotone in traffic" true (t2 > t1)

let test_timing_divergence_penalty () =
  let t1 = (evaluate (mk_stats ~read:1_000_000 ~evals:100 ~div:0 ())).runtime_us in
  let t2 = (evaluate (mk_stats ~read:1_000_000 ~evals:100 ~div:100 ())).runtime_us in
  Alcotest.(check bool) "divergence costs" true (t2 > t1)

let test_timing_latency_term () =
  (* few warps + long chain: latency dominates *)
  let stats = mk_stats ~read:8_192 ~blocks:4 ~threads:128 () in
  let b =
    T.evaluate
      { device = Util.device; stats; block = (32, 1, 1); regs_per_thread = 32; dependent_chain = 400 }
  in
  Alcotest.(check bool) "latency dominates" true
    (b.latency_time_us > b.memory_time_us && b.latency_time_us > b.compute_time_us)

let suite =
  [
    Alcotest.test_case "memory basics" `Quick test_memory_basics;
    Alcotest.test_case "seeded memory deterministic" `Quick test_memory_seeded_deterministic;
    Alcotest.test_case "memory diff" `Quick test_memory_diff;
    Alcotest.test_case "memory bit identity" `Quick test_memory_bits_equal;
    Alcotest.test_case "pointwise execution" `Quick test_pointwise_execution;
    Alcotest.test_case "stencil execution vs reference" `Quick test_stencil_execution;
    Alcotest.test_case "divergence counted" `Quick test_guard_divergence_counted;
    Alcotest.test_case "out-of-bounds detected" `Quick test_out_of_bounds;
    Alcotest.test_case "shared staging with barrier" `Quick test_syncthreads_staging;
    Alcotest.test_case "hazard detection" `Quick test_hazard_detection;
    Alcotest.test_case "barrier divergence rejected" `Quick test_barrier_divergence_rejected;
    Alcotest.test_case "return guard" `Quick test_return_guard;
    Alcotest.test_case "schedule order" `Quick test_schedule_runs_in_order;
    Alcotest.test_case "timing: memory bound" `Quick test_timing_memory_bound;
    Alcotest.test_case "timing: monotone in bytes" `Quick test_timing_more_bytes_slower;
    Alcotest.test_case "timing: divergence penalty" `Quick test_timing_divergence_penalty;
    Alcotest.test_case "timing: latency term" `Quick test_timing_latency_term;
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic usage observation (the pointer-aliasing pre-run, Section 7) *)
(* ------------------------------------------------------------------ *)

let test_usage_observed () =
  let prog = Util.producer_consumer_program ~dims:(16, 8, 4) ~block:(8, 4, 1) () in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:9;
  let _, (reads, writes) = I.launch_with_usage mem prog (Util.launch_of prog "produce") in
  Alcotest.(check (list string)) "reads observed" [ "A" ] reads;
  Alcotest.(check (list string)) "writes observed" [ "B" ] writes

let test_usage_guarded_out () =
  (* an array bound to a parameter but never executed (guard always
     false) must NOT appear in the dynamic usage: the ground truth the
     paper's pre-run provides over static analysis *)
  let src =
    {|
__global__ void maybe(const double *A, const double *Z, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    if (nx > 9999) {
      B[j * nx + i] = Z[j * nx + i];
    } else {
      B[j * nx + i] = c * A[j * nx + i];
    }
  }
}
|}
  in
  let k = Kft_cuda.Parse.kernel src in
  let dims = (16, 8, 4) in
  let prog =
    {
      p_name = "t";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "Z"; "B" ];
      p_kernels = [ k ];
      p_schedule =
        [ Launch { l_kernel = "maybe"; l_domain = (16, 8, 1); l_block = (8, 4, 1);
                   l_args = Util.std_args dims [ "A"; "Z"; "B" ] 0.5 } ];
    }
  in
  let mem = Mem.create prog.p_arrays in
  let _, (reads, writes) = I.launch_with_usage mem prog (Util.launch_of prog "maybe") in
  Alcotest.(check (list string)) "only the taken branch reads" [ "A" ] reads;
  (* static analysis over-approximates: it reports Z as touched *)
  let static_reads =
    match (Kft_schedflow.Schedflow.analyze prog).ops with
    | [ op ] -> List.map fst op.op_reads
    | _ -> Alcotest.fail "expected one schedule op"
  in
  Alcotest.(check (list string)) "static over-approximation" [ "A"; "Z" ] (List.sort compare static_reads);
  Alcotest.(check (list string)) "writes observed" [ "B" ] writes

let usage_suite =
  [
    Alcotest.test_case "usage: reads/writes observed" `Quick test_usage_observed;
    Alcotest.test_case "usage: dynamic vs static" `Quick test_usage_guarded_out;
  ]

(* ------------------------------------------------------------------ *)
(* Expression semantics details                                        *)
(* ------------------------------------------------------------------ *)

let run_expr_kernel body_src =
  let src =
    Printf.sprintf
      {|
__global__ void e(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    %s
  }
}
|}
      body_src
  in
  let prog = one_kernel_prog src "e" [ "A"; "B" ] 2.0 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:11;
  let a = Mem.get_array mem "A" in
  ignore (I.launch mem prog (Util.launch_of prog "e"));
  (a, Mem.get_array mem "B")

let test_math_builtins () =
  let a, b = run_expr_kernel "B[j * nx + i] = sqrt(fabs(A[j * nx + i])) + fmax(A[j * nx + i], 0.0);" in
  Array.iteri
    (fun i av ->
      if i < 16 * 8 then
        Util.check_float "sqrt/fabs/fmax" (sqrt (Float.abs av) +. Float.max av 0.0) b.(i))
    a

let test_ternary_and_intops () =
  let _, b = run_expr_kernel "B[j * nx + i] = (i % 3 == 0 && j / 2 < 2) ? 1.0 : 0.0;" in
  let nx = 16 in
  for j = 0 to 7 do
    for i = 0 to nx - 1 do
      let expect = if i mod 3 = 0 && j / 2 < 2 then 1.0 else 0.0 in
      Util.check_float "ternary/int ops" expect b.((j * nx) + i)
    done
  done

let test_division_by_zero_caught () =
  match run_expr_kernel "int z = 0; B[j * nx + i] = A[(j * nx + i) / z];" with
  | (_ : float array * float array) -> Alcotest.fail "expected error"
  | exception I.Sim_error _ -> ()

let test_copies_are_noops () =
  let prog = Util.producer_consumer_program ~dims:(16, 8, 4) ~block:(8, 4, 1) () in
  let prog =
    { prog with p_schedule = (Copy_to_device "A" :: prog.p_schedule) @ [ Copy_to_host "C" ] }
  in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:5;
  let results = I.run_schedule mem prog in
  Alcotest.(check int) "copies skipped, launches run" 2 (List.length results)

let semantics_suite =
  [
    Alcotest.test_case "math builtins" `Quick test_math_builtins;
    Alcotest.test_case "ternary and integer ops" `Quick test_ternary_and_intops;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero_caught;
    Alcotest.test_case "memcpy markers are no-ops" `Quick test_copies_are_noops;
  ]

(* ------------------------------------------------------------------ *)
(* Block-parallel execution, affine precomputation, memory edge cases   *)
(* ------------------------------------------------------------------ *)

module E = Kft_engine.Engine

let run_at ~jobs ~affine prog =
  let mem = Mem.create prog.Kft_cuda.Ast.p_arrays in
  Mem.init_seeded mem ~seed:17;
  let runs =
    if jobs <= 1 then I.run_schedule ~affine mem prog
    else
      E.with_engine ~jobs ~memo:false (fun e -> I.run_schedule ~engine:e ~affine mem prog)
  in
  (mem, List.map snd runs)

(* the tentpole determinism property: final memory and every stats field
   are bit-identical whatever the jobs setting and whether the affine
   fast path is on — the optimized compilation is differentially tested
   against the plain reference compilation *)
let test_block_parallel_determinism () =
  let prog = Util.producer_consumer_program ~dims:(32, 16, 8) ~block:(16, 4, 1) () in
  let ref_mem, ref_stats = run_at ~jobs:1 ~affine:false prog in
  List.iter
    (fun (jobs, affine) ->
      let mem, stats = run_at ~jobs ~affine prog in
      let label = Printf.sprintf "jobs=%d affine=%b" jobs affine in
      Alcotest.(check bool) (label ^ ": memory bit-identical") true
        (Mem.bits_equal ref_mem mem);
      Alcotest.(check bool) (label ^ ": stats identical") true (ref_stats = stats))
    [ (1, true); (2, false); (2, true); (4, false); (4, true) ]

let test_unknown_array () =
  let mem = Mem.create [ Util.arr3 dims "A" ] in
  (match Mem.get mem "nope" with
  | (_ : Mem.buf) -> Alcotest.fail "expected Unknown_array"
  | exception Mem.Unknown_array name -> Alcotest.(check string) "get carries name" "nope" name);
  match Mem.dims mem "gone" with
  | (_ : int list) -> Alcotest.fail "expected Unknown_array"
  | exception Mem.Unknown_array name -> Alcotest.(check string) "dims carries name" "gone" name

let test_max_abs_diff_one_sided () =
  let mem1 = Mem.create [ Util.arr3 dims "A" ] in
  let mem2 = Mem.create [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
  match Mem.max_abs_diff mem1 mem2 with
  | [ ("A", a); ("B", b) ] ->
      Util.check_float "shared array agrees" 0.0 a;
      Alcotest.(check bool) "one-sided array reports infinity" true (b = infinity)
  | _ -> Alcotest.fail "diff shape"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_affine_rewrite_structure () =
  let k =
    Kft_cuda.Parse.kernel
      (Util.stencil_src ~name:"st" ~src:"A" ~dst:"B" ~margin:1 ~threed:true)
  in
  let k' = Kft_sim.Affine.rewrite_kernel k in
  Alcotest.(check bool) "original has no __aff" false (contains (Kft_cuda.Pp.kernel k) "__aff");
  Alcotest.(check bool) "rewrite introduces __aff induction variables" true
    (contains (Kft_cuda.Pp.kernel k') "__aff")

(* ------------------------------------------------------------------ *)
(* Off-heap substrate: copies, fresh arenas, lifetime edge cases        *)
(* ------------------------------------------------------------------ *)

let test_zero_length_arrays () =
  (* a zero-cell array is legal: zero-length view, diffs agree, seeding
     is a no-op, and it coexists with non-empty neighbours in the arena *)
  let z = { a_name = "Z"; a_elem_ty = Double; a_dims = [ 0; 4; 4 ] } in
  let mem1 = Mem.create [ z; Util.arr3 dims "A" ] in
  let mem2 = Mem.create [ z; Util.arr3 dims "A" ] in
  Mem.init_seeded mem1 ~seed:3;
  Mem.init_seeded mem2 ~seed:3;
  Alcotest.(check int) "zero cells" 0 (Bigarray.Array1.dim (Mem.get mem1 "Z"));
  Alcotest.(check bool) "dims kept" true (Mem.dims mem1 "Z" = [ 0; 4; 4 ]);
  Alcotest.(check bool) "equal incl. empty array" true (Mem.bits_equal mem1 mem2);
  (match List.assoc_opt "Z" (Mem.max_abs_diff mem1 mem2) with
  | Some d -> Util.check_float "empty array diff is 0" 0.0 d
  | None -> Alcotest.fail "Z missing from diff");
  Alcotest.(check int) "empty heap copy" 0 (Array.length (Mem.get_array mem1 "Z"))

let test_release_lifecycle () =
  let mem = Mem.create [ Util.arr3 dims "A" ] in
  Mem.release mem;
  (match Mem.get mem "A" with
  | (_ : Mem.buf) -> Alcotest.fail "expected use-after-release failure"
  | exception Invalid_argument _ -> ());
  (match Mem.get_array mem "A" with
  | (_ : float array) -> Alcotest.fail "expected get_array-after-release failure"
  | exception Invalid_argument _ -> ());
  match Mem.release mem with
  | () -> Alcotest.fail "expected double-release failure"
  | exception Invalid_argument _ -> ()

let test_fresh_memories () =
  let decls = [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
  let s0 = Mem.Arenas.stats () in
  let m1 = Mem.create decls in
  Mem.init_seeded m1 ~seed:9;
  let keep = Mem.get_array m1 "A" in
  Mem.release m1;
  (* a same-size create after a release reads all zeros *)
  let m2 = Mem.create decls in
  Alcotest.(check bool) "fresh arena zeroed" true
    (Array.for_all (fun v -> v = 0.0) (Mem.get_array m2 "A"));
  Mem.release m2;
  (* two live memories hold equal contents but never share storage *)
  let m3 = Mem.create decls and m4 = Mem.create decls in
  Mem.init_seeded m3 ~seed:9;
  Mem.init_seeded m4 ~seed:9;
  Alcotest.(check bool) "same contents" true (Mem.bits_equal m3 m4);
  (Mem.get m4 "A").{1} <- 7.5;
  Alcotest.(check bool) "no aliasing" true (Mem.get_array m3 "A" = keep);
  Mem.release m3;
  Mem.release m4;
  let s1 = Mem.Arenas.stats () in
  Alcotest.(check int) "one request per create" 4 (s1.Mem.Arenas.requests - s0.Mem.Arenas.requests);
  Alcotest.(check int) "exactly the cells needed"
    (4 * List.fold_left (fun acc d -> acc + Kft_cuda.Ast.array_cells d) 0 decls)
    (s1.cells_requested - s0.cells_requested)

(* ------------------------------------------------------------------ *)
(* Execution paths: reference interpreter vs compiled-affine            *)
(* ------------------------------------------------------------------ *)

(* [Auto] and [Vector] are aliases of [Affine]: selection only ever
   yields the reference interpreter or the compiled-affine path *)
let test_backend_selection () =
  let q = Util.quickstart_program () in
  let l = Util.launch_of q "diffuse" in
  let selected ?affine ?backend () = I.selected_backend ?affine ?backend q l in
  Alcotest.(check bool) "auto selects affine" true (selected ~backend:I.Auto () = I.Affine);
  Alcotest.(check bool) "vector selects affine" true (selected ~backend:I.Vector () = I.Affine);
  Alcotest.(check bool) "explicit interp honoured" true
    (selected ~backend:I.Interpret () = I.Interpret);
  Alcotest.(check bool) "explicit affine honoured" true (selected ~backend:I.Affine () = I.Affine);
  Alcotest.(check bool) "backend wins over the affine flag" true
    (selected ~affine:false ~backend:I.Affine () = I.Affine);
  Alcotest.(check bool) "no backend defers to affine flag" true
    (selected ~affine:false () = I.Interpret);
  Alcotest.(check bool) "affine is the default" true (selected () = I.Affine);
  Alcotest.(check string) "auto names the path that runs" "affine" (I.backend_name I.Auto);
  Alcotest.(check string) "vector names the path that runs" "affine" (I.backend_name I.Vector)

(* forcing the chunk count exercises the ordered per-block merge even on
   a single-core host (where the adaptive policy always picks 1 chunk) *)
let test_chunked_merge () =
  let prog = Util.quickstart_program () in
  let ref_mem, ref_stats = run_at ~jobs:1 ~affine:false prog in
  Fun.protect
    ~finally:(fun () -> I.chunk_override := None)
    (fun () ->
      I.chunk_override := Some 3;
      let mem, stats = run_at ~jobs:2 ~affine:true prog in
      Alcotest.(check bool) "lockstep 3-chunk merge memory" true
        (Mem.bits_equal ref_mem mem);
      Alcotest.(check bool) "lockstep 3-chunk merge stats" true (stats = ref_stats))

(* out-of-bounds faults must surface identically (same exception, same
   message, lowest-failing-block semantics) on either path *)
let test_error_parity () =
  let src =
    {|
__global__ void oob(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  B[i + 100000] = c * A[0];
}
|}
  in
  let prog = one_kernel_prog src "oob" [ "A"; "B" ] 1.0 in
  let l = Util.launch_of prog "oob" in
  let msg backend =
    let mem = Mem.create prog.p_arrays in
    match I.launch ~backend mem prog l with
    | (_ : I.stats) -> Alcotest.fail "expected Sim_error"
    | exception I.Sim_error { kernel; message } -> (kernel, message)
  in
  Alcotest.(check bool) "same Sim_error from both paths" true
    (msg I.Affine = msg I.Interpret)

let test_usage_parity () =
  let prog = Util.producer_consumer_program () in
  let usage backend =
    let mem = Mem.create prog.p_arrays in
    Mem.init_seeded mem ~seed:42;
    snd (I.launch_with_usage ~backend mem prog (Util.launch_of prog "produce"))
  in
  Alcotest.(check bool) "dynamic usage identical" true
    (usage I.Affine = usage I.Interpret)

(* the profiler sees the same byte counts (and all other stats) from
   both paths on the quickstart chain *)
let test_profiler_backend_agreement () =
  let prog = Util.quickstart_program () in
  let stats_of backend =
    List.map
      (fun (p : Kft_sim.Profiler.kernel_profile) ->
        ( p.kernel,
          p.stats.I.global_read_bytes,
          p.stats.I.global_write_bytes,
          p.stats.I.flops,
          p.stats.I.warp_cond_evals ))
      (Kft_sim.Profiler.profile ~backend Util.device prog).Kft_sim.Profiler.profiles
  in
  Alcotest.(check bool) "profiler byte counts agree, affine vs interp" true
    (stats_of I.Affine = stats_of I.Interpret)

let test_trace_backend () =
  let prog = Util.quickstart_program () in
  let rendered backend =
    let trace = Kft_trace.Trace.create "t" in
    let mem = Mem.create prog.p_arrays in
    Mem.init_seeded mem ~seed:42;
    ignore (I.launch ?backend ~trace mem prog (Util.launch_of prog "diffuse"));
    Kft_trace.Trace.render_json trace
  in
  Alcotest.(check bool) "affine recorded" true
    (Util.contains (rendered None) "\"backend\":\"affine\"");
  Alcotest.(check bool) "interp recorded" true
    (Util.contains (rendered (Some I.Interpret)) "\"backend\":\"interp\"");
  Alcotest.(check bool) "an alias records the path that ran" true
    (Util.contains (rendered (Some I.Auto)) "\"backend\":\"affine\"")

(* Each closure form of the compiled-affine path against the reference
   interpreter: final memory, every stats field and the dynamic usage
   must be identical, or both paths must raise the same [Sim_error].
   [expect] pins which of the two a row is meant to exercise. *)
let fast_path_case (label, expect, body) =
  let src =
    Printf.sprintf
      {|
__global__ void d(const double *A, double *B, int nx, int ny, int nz, double c) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int i = blockIdx.x * blockDim.x + tx;
  int j = blockIdx.y * blockDim.y + ty;
  int g = j * nx + i;
  double x = A[g];
  double y = A[g + 1] + 0.5;
  %s
}
|}
      body
  in
  let test () =
    let prog = one_kernel_prog src "d" [ "A"; "B" ] 0.75 in
    let run affine =
      let mem = Mem.create prog.p_arrays in
      Mem.init_seeded mem ~seed:23;
      match I.launch_with_usage ~affine mem prog (Util.launch_of prog "d") with
      | stats, usage -> Ok (mem, stats, usage)
      | exception I.Sim_error { kernel; message } -> Error (kernel ^ ": " ^ message)
    in
    match (run false, run true) with
    | Ok (m0, s0, u0), Ok (m1, s1, u1) ->
        Alcotest.(check bool) "memory bit-identical" true (Mem.bits_equal m0 m1);
        Alcotest.(check bool) "every stats field identical" true (s0 = s1);
        Alcotest.(check bool) "usage identical" true (u0 = u1);
        Alcotest.(check bool) "runs as the row expects" true
          (match expect with `Runs -> true | `Hazards -> s0.shared_hazards > 0 | `Raises -> false)
    | Error e0, Error e1 ->
        Alcotest.(check string) "same Sim_error" e0 e1;
        Alcotest.(check bool) "raises as the row expects" true (expect = `Raises)
    | Ok _, Error e -> Alcotest.failf "only compiled-affine raised: %s" e
    | Error e, Ok _ -> Alcotest.failf "only the reference raised: %s" e
  in
  Alcotest.test_case ("fast path vs reference: " ^ label) `Quick test

(* an [n]-term [+]/[-] chain cycling through a register, a global read,
   a constant and a computed term, every other term subtracted *)
let chain n =
  String.concat ""
    (List.init n (fun k ->
         let term = match k mod 4 with 0 -> "x" | 1 -> "A[g]" | 2 -> "0.25" | _ -> "(y * 1.5)" in
         if k = 0 then term else (if k mod 2 = 1 then " - " else " + ") ^ term))

let fast_path_rows =
  [
    ("- and / with the register on each side", `Runs,
     "B[g] = (x - 1.5) * (2.5 - x) * (x / 3.0) * (3.0 / x) * ((x - y) / (y / x)) * ((c - x) / c)\n\
     \      * (x - y * 2.0) * (y * 2.0 - x) * (x / (y + 1.0)) * ((y + 3.0) / x);");
    ("3-term chain", `Runs, "B[g] = " ^ chain 3 ^ ";");
    ("8-term chain", `Runs, "B[g] = " ^ chain 8 ^ ";");
    ("9-term chain", `Runs, "B[g] = " ^ chain 9 ^ ";");
    ("33-term chain", `Runs, "double s = " ^ chain 33 ^ "; B[g] = c * s;");
    ("chain of registers only", `Runs,
     "double a = x * 2.0; double b = y - x; B[g] = x - y + a - b - x + b;");
    (* 2^53 + 1 is not a double: flattening [p + q] into float terms
       would round it before the addition *)
    ("int-typed leading terms stay integer", `Runs,
     "int p = 9007199254740993; int q = 1; B[g] = p + q + x - p - q;");
    ("/ and % by negative literals on negative dividends", `Runs,
     "int n = -7 - 3 * i; B[g] = (n / -2) + (n % -3) + (n / 3) + (n % 4) + (n % -1) + x;");
    ("integer division by a zero literal", `Raises, "B[g] = x + (i / 0);");
    ("integer modulo by a zero literal", `Raises, "B[g] = x + (i % 0);");
    ("2-D shared tile, hazards counted", `Hazards,
     "__shared__ double s[4][8]; s[ty][tx] = x; B[g] = s[ty][(tx + 1) % 8] + s[ty][tx];");
    ("1-D shared tile", `Runs,
     "__shared__ double s[32]; s[ty * 8 + tx] = y; __syncthreads(); B[g] = s[(ty * 8 + tx + 3) % 32];");
    ("shared read out of bounds on dimension 0", `Raises,
     "__shared__ double s[4][8]; s[ty][tx] = x; __syncthreads(); B[g] = s[ty + 1][tx];");
    ("shared read out of bounds on dimension 1", `Raises,
     "__shared__ double s[4][8]; s[ty][tx] = x; __syncthreads(); B[g] = s[ty][tx + 1];");
    ("shared write out of bounds on dimension 1", `Raises,
     "__shared__ double s[4][8]; s[ty][tx + 1] = x; B[g] = x;");
    (* linear integer forms: regrouping must wrap exactly as the
       reference's operations do *)
    ("linear forms that wrap", `Runs,
     "int w = i * 4611686018427387903 + j * 3;\n\
     \      int v = (i + 3) * 4611686018427387903 - i * 4611686018427387903 - (0 - w) * 2;\n\
     \      B[g] = x + (w % 7) + (v % 5) + ((-w) % 3);");
    ("cancelling and duplicate registers", `Runs,
     "int u = i + j - i; int v = tx + tx;\n\
     \      B[g + v - tx - tx] = x + u + v + A[j * nx + i + i - i] + (tx - tx + ty - ty);");
    ("blockIdx terms and four or more registers", `Runs,
     "int w = blockIdx.x * 7 - blockIdx.y * 3 + tx;\n\
     \      int z = tx + 2 * ty - 3 * i + 5 * j + w - blockIdx.x;\n\
     \      B[g] = x + w + z + A[(blockIdx.y * 4 + ty) * nx + blockIdx.x * 8 + tx + w - w];");
    ("guard ranges on registers and constants", `Runs,
     "if (i >= 1 && i < 15 && 2 <= j && j <= 6 && i != 7 && tx > 0) { B[g] = x; }\n\
     \      if (3 > tx && tx >= 0 && ty == 2) { B[g] = y; }\n\
     \      for (int k = 0; k < 3; k++) { if (k >= 1 && k < 2 && i < 4611686018427387903) { B[g] = B[g] + x; } }\n\
     \      if (i > -4611686018427387903 - 1 && j >= 0 && j > 4611686018427387903 - 9) { B[g] = 0.5; }\n\
     \      if (j < -4611686018427387903 - 1 && i >= 0) { B[g] = 0.25; }");
    (* tiles indexed in place *)
    ("in-place tile indexes with nested constants", `Runs,
     "__shared__ double s[8][12]; s[ty + 2][tx + 2] = x; __syncthreads();\n\
     \      B[g] = s[ty + 2][tx + 2 + 2] + s[ty + 2 - 2][tx + 2] + s[3][tx];");
    ("1-D in-place tile, hazards counted", `Hazards,
     "__shared__ double s[16]; s[tx + 3] = x; B[g] = s[tx + 3] + s[7];");
    ("shared read at a negative offset out of bounds on dimension 0", `Raises,
     "__shared__ double s[4][8]; s[ty][tx] = x; __syncthreads(); B[g] = s[ty - 1][tx];");
    ("shared write out of bounds on dimension 0", `Raises,
     "__shared__ double s[4][8]; s[ty + 1][tx] = x; B[g] = x;");
    ("3-D tile on the generic path", `Runs,
     "__shared__ double s[2][4][8]; s[blockIdx.x][ty][tx] = x; __syncthreads();\n\
     \      B[g] = s[blockIdx.x][ty][tx] + s[1][ty][7 - tx];");
    ("3-D tile read out of bounds", `Raises,
     "__shared__ double s[2][4][8]; s[blockIdx.x][ty][tx] = x; __syncthreads();\n\
     \      B[g] = s[0][ty][tx + 1];");
    (* float register statements run as one closure *)
    ("register run reading a register written earlier in the run", `Runs,
     "for (int k = 0; k < 2; k++) {\n\
     \        double p = x * 2.0; double q = p + A[g + k]; p = q * p - y; q = q + p * A[g + 2];\n\
     \        B[g] = p + q; }");
    ("register run whose global read goes out of bounds", `Raises,
     "if (i >= 0) { double p = x + 1.0; double q = A[g + 500 - 8 * tx] + p; double r = q * 2.0; B[g] = r; }");
    ("register runs split by a Ternary and an int statement", `Runs,
     "if (i >= 0) {\n\
     \        double p = x * 2.0; double q = (x > y) ? A[g] : A[g + 1] + p; double r = q - p;\n\
     \        int m = i + 1; double s2 = r * m + A[g + 2]; B[g] = s2 + p + q; }");
    (* a register scaled by a constant, read in place *)
    ("scaled register operands", `Runs,
     "double a = x * 2.0 - y; double b = 2.0 * x + 1.0; double d = c * x; double e = x * c + y;\n\
     \      double f = x * 2.0 - 1.5; double h = 3.0 * y - x; double u = y * 0.5 + 2.0 * x;\n\
     \      B[g] = a + b - d + e + f * h + u + (y * 3.0) * (0.5 * x) - 1.5 * y / (x * 4.0);");
    ("scaled register operand on an infinite register", `Runs,
     "double big = x * 1e308 * 1e308; double n = big * 0.0; double m = 0.0 * big;\n\
     \      B[g] = (n != n && m != m) ? 1.5 : 2.5;");
  ]

let fast_path_suite = List.map fast_path_case fast_path_rows

let parallel_suite =
  [
    Alcotest.test_case "determinism across jobs x affine" `Quick test_block_parallel_determinism;
    Alcotest.test_case "backend selection and names" `Quick test_backend_selection;
    Alcotest.test_case "chunked ordered merge" `Quick test_chunked_merge;
    Alcotest.test_case "runtime error parity" `Quick test_error_parity;
    Alcotest.test_case "dynamic usage parity" `Quick test_usage_parity;
    Alcotest.test_case "profiler agrees across backends" `Quick test_profiler_backend_agreement;
    Alcotest.test_case "executed backend recorded in trace" `Quick test_trace_backend;
    Alcotest.test_case "unknown array raises" `Quick test_unknown_array;
    Alcotest.test_case "one-sided diff is infinite" `Quick test_max_abs_diff_one_sided;
    Alcotest.test_case "affine rewrite structure" `Quick test_affine_rewrite_structure;
    Alcotest.test_case "zero-length arrays" `Quick test_zero_length_arrays;
    Alcotest.test_case "release lifecycle" `Quick test_release_lifecycle;
    Alcotest.test_case "fresh memories are zeroed and never alias" `Quick test_fresh_memories;
  ]
