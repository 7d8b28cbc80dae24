(** Static cost estimates used by the operations metadata and the
    register/occupancy estimation of the tuner (Sections 4.2 and 5.1). *)

type t = {
  flops_per_thread : float;
      (** arithmetic double-precision operations executed by one thread
          passing the guard, loop trip counts included *)
  global_reads_per_thread : float;  (** 8-byte global loads per thread *)
  global_writes_per_thread : float;
  dependent_chain : int;
      (** longest chain of serially dependent arithmetic operations per
          thread (through scalar temporaries); drives the latency term of
          the timing model *)
}

val of_kernel : Kft_cuda.Ast.kernel -> Access.launch_env -> t
(** Counts are static: a loop multiplies its body by its trip count,
    whose bounds {!Absint.const_of_expr} folds with the int arguments
    bound and each enclosing loop index at 0 (one trip when a bound does
    not fold); both branches of thread-dependent
    conditionals are averaged at weight 1/2 only for unguarded interior
    conditionals — the kernel-level guard is accounted separately via
    {!Access.kernel_access_info.active_fraction}. *)

val estimate_registers : Kft_cuda.Ast.kernel -> int
(** Register-per-thread estimate from declaration count, distinct arrays
    touched and expression depth — the analysis the paper leverages from
    its performance model to feed the occupancy calculator. Clamped to
    [18, 128]. *)

val flops_of_assignment : Kft_cuda.Ast.expr -> int
(** Arithmetic operation count of one right-hand side. *)
