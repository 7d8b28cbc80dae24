(** Functional GPU simulator: a bulk-synchronous lockstep interpreter
    for the CUDA subset.

    Execution model: thread blocks run independently (optionally in
    parallel over an engine's domain pool, see {!launch}); inside a
    block, statements that contain no [__syncthreads()] execute
    thread-by-thread (two observations make this sound for the supported
    subset: race-free kernels are order-insensitive, and racy ones are
    undefined behaviour in real CUDA — the hazard detector reports
    them); statements that do contain a barrier execute in lockstep with
    uniformity checks, exactly the discipline real CUDA requires of
    barriers.

    The interpreter doubles as the instrumentation layer of Section 5.1:
    it counts global traffic, floating-point operations, intra-warp
    divergence of conditionals and shared-memory hazards, which the
    profiler turns into the paper's performance metadata. *)

type stats = {
  mutable global_read_bytes : int;
  mutable global_write_bytes : int;
  mutable flops : float;
  mutable warp_cond_evals : int;
      (** warp-granularity evaluations of thread-dependent conditionals *)
  mutable divergent_warp_cond_evals : int;
  mutable shared_hazards : int;
      (** same-epoch cross-thread shared-memory read-after-write pairs:
          potential races a missing barrier would expose *)
  mutable threads_launched : int;
  mutable threads_active : int;  (** threads never disabled by [return] and executing at least one write *)
  shared_bytes_per_block : int;
  blocks_launched : int;
}

val divergence_fraction : stats -> float

val copy_stats : stats -> stats
(** A fresh record with the same counters, so a cached profile can be
    replayed without aliasing its mutable fields. *)

exception
  Sim_error of {
    kernel : string;
    message : string;
  }
(** Out-of-bounds accesses, barrier divergence, unbound names, arity
    errors. Both execution paths raise the same exception with the same
    message. *)

type backend =
  | Auto  (** alias of [Affine], kept only for [perfbench/bench.ml] *)
  | Interpret  (** the reference interpreter ([affine:false]) *)
  | Affine  (** lockstep with affine strength reduction (the default) *)
  | Vector  (** alias of [Affine], kept only for [perfbench/bench.ml] *)
(** Execution path selection. The reference interpreter is the
    differential oracle; compiled-affine is the one fast path. Both
    produce bit-identical memory, statistics and usage, so the choice
    only changes how fast a run is. *)

val backend_name : backend -> string
(** The name of the path that actually runs: ["interp"] or ["affine"]
    (also for the aliases). *)

val selected_backend :
  ?affine:bool -> ?backend:backend ->
  Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> backend
(** The path ({!Interpret} or {!Affine}) a launch with these options
    runs on. [backend] wins over [affine]; the program and launch do
    not affect the choice. *)

val chunk_override : int option ref
(** Test hook: force the block-range chunk count, bypassing the
    adaptive serial-fallback policy, so the ordered-merge path can be
    exercised deterministically on single-core hosts. Reset to [None]
    after use. *)

val access_trace : (write:bool -> string -> int -> unit) option ref
(** Test hook: when set, every in-bounds global-memory access taken on
    the interpretive (non-affine) path reports its direction, array name
    and linear element index. The optimized affine path does not trace —
    run with [affine:false] (and no [engine]: the callback is invoked
    from worker domains otherwise). Reset to [None] after use. *)

val launch :
  ?engine:Kft_engine.Engine.t -> ?affine:bool -> ?backend:backend ->
  ?trace:Kft_trace.Trace.t ->
  Memory.t -> Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> stats
(** Execute one kernel launch against device memory, returning its
    execution statistics.

    [engine] fans the grid's linearized block range out over the
    engine's domain pool in contiguous chunks (blocks are independent:
    the subset has no inter-block synchronization, and kft_verify proves
    per-thread write disjointness for verified kernels). Per-block stats
    deltas are merged in block-index order whatever the chunking, so
    stats and final memory are bit-identical at any jobs setting —
    including sequential (no engine, the default). A failing launch
    raises the same [Sim_error] (that of the lowest failing block) in
    either mode.

    [affine] (default [true]) enables {!Affine} strength reduction of
    index expressions before compilation; it is observation-preserving
    (same values, same stats), only faster.

    [backend] overrides [affine] (see {!selected_backend}).

    [trace] records one [launch:<kernel>] span per call with block,
    thread and read/write byte totals plus the executed path
    ({!backend_name}) in the canonical channel, and the block-chunk
    split in the side channel (see {!Kft_trace.Trace}). The trace is only touched from the calling
    (coordinator) domain. *)

val launch_with_usage :
  ?engine:Kft_engine.Engine.t -> ?affine:bool -> ?backend:backend ->
  ?trace:Kft_trace.Trace.t ->
  Memory.t -> Kft_cuda.Ast.program -> Kft_cuda.Ast.launch ->
  stats * (string list * string list)
(** Like {!launch}, additionally returning the host arrays the launch
    dynamically (actually) read and wrote. This is the "pre-run to
    detect the data usage pattern" the paper proposes as the practical
    answer to pointer aliasing (Section 7): a dynamic ground truth to
    validate the static dependence analysis against. *)

val record_replay :
  ?affine:bool -> ?backend:backend -> ?trace:Kft_trace.Trace.t ->
  Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> stats -> unit
(** Record the [launch:<kernel>] span of a launch whose [stats] were
    replayed instead of simulated: the same canonical counters and
    [backend] argument {!launch} records, plus a [replayed] note in the
    side channel. *)

val run_schedule :
  ?engine:Kft_engine.Engine.t -> ?affine:bool -> ?backend:backend ->
  ?trace:Kft_trace.Trace.t ->
  Memory.t -> Kft_cuda.Ast.program -> (Kft_cuda.Ast.launch * stats) list
(** Execute every [Launch] of the program's schedule in order ([Copy_*]
    markers are no-ops for the simulator: memory is unified). *)
