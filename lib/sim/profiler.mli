(** The nvprof stand-in: execute a program on the simulator and produce
    per-kernel performance profiles (Section 5.1's single profiled run
    of the instrumented code). *)

type kernel_profile = {
  kernel : string;
  launch : Kft_cuda.Ast.launch;
  stats : Interp.stats;
  timing : Timing.breakdown;
  regs_per_thread : int;
  cost : Kft_analysis.Cost.t;
}

type run = {
  profiles : kernel_profile list;  (** in schedule order, one per launch *)
  total_time_us : float;  (** sum of modeled kernel runtimes *)
  memory : Memory.t;  (** final device memory *)
}

val profile :
  ?engine:Kft_engine.Engine.t -> ?affine:bool -> ?backend:Interp.backend ->
  ?trace:Kft_trace.Trace.t -> ?layout:Memory.layout -> ?seed:int ->
  Kft_device.Device.t -> Kft_cuda.Ast.program -> run
(** Allocate and seed device memory (default seed 42), then run the full
    schedule. [engine] and [affine] are passed through to
    {!Interp.launch}, as is [backend] (the reference interpreter and
    the compiled-affine path are bit-identical, so the choice never
    changes the profile, only how fast it is produced). [layout] places the arrays by a liveness-driven overlay
    (see {!Memory.layout}): statistics and timings are bit-identical,
    only the arena is smaller — use when the run's memory is discarded.
    The cached path ([Kft_metadata.Sim_cache.profile]) holds no arena
    and ignores [layout]; this uncached run is its independent oracle.
    [trace] records one span per launch. *)

val profile_of_stats :
  Kft_device.Device.t -> Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> Interp.stats ->
  kernel_profile
(** The profile of one launch from its execution statistics: static cost
    analysis plus the timing model. Every profile is built here, whether
    its stats come from a simulation or from a replayed one. *)

val run_of_profiles : kernel_profile list -> Memory.t -> run
(** A run from its profiles (in schedule order) and final memory. *)

val verify :
  ?engine:Kft_engine.Engine.t -> ?affine:bool -> ?backend:Interp.backend ->
  ?trace:Kft_trace.Trace.t -> ?seed:int -> ?tol:float ->
  Kft_device.Device.t ->
  original:Kft_cuda.Ast.program -> transformed:Kft_cuda.Ast.program ->
  (unit, (string * float) list) result
(** Run both programs from identical seeded memory and compare all
    arrays common to both; [Error diffs] lists offending arrays with
    their max absolute difference. This is the output verification the
    paper performed "for every single run" (Section 6.1.2). *)

val output_diffs :
  ?equal:(string -> bool) -> tol:float -> Memory.t -> Memory.t -> (string * float) list
(** The arrays present in both memories whose maximum absolute
    difference exceeds [tol], with that difference, sorted by name: the
    comparison {!verify} makes. [equal n] asserts that array [n] is
    bitwise equal on both sides (its difference is then [0.0] without a
    comparison); it defaults to asserting nothing. *)

val speedup : original:run -> transformed:run -> float
(** Ratio of total modeled times. *)

val traffic_by_kernel : run -> (string * float) list
(** Measured global traffic (bytes read plus written) per kernel name,
    summed over the kernel's launches in schedule order, sorted by
    name. *)
