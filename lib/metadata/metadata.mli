(** The three metadata files of Section 3.2.1.

    After the gathering stage the framework writes (1) performance
    metadata quantifying metrics and device utilization per original
    kernel, (2) operations metadata describing the stencil operations,
    and (3) device metadata. Each is a typed value with a text
    round-trip so the programmer can amend the files between stages. *)

type perf_entry = {
  kernel : string;
  runtime_us : float;
  flops : float;
  bytes : float;  (** global-memory traffic *)
  effective_bw_gbs : float;
  shared_per_block : int;  (** bytes *)
  regs_per_thread : int;
  active_threads : int;
  active_blocks_per_sm : int;
  occupancy : float;
  divergence : float;
}

type array_op = {
  array : string;  (** host array name *)
  reads : int;  (** distinct read offsets *)
  writes : int;
  radius : int * int * int;
  array_flops : float;  (** FLOPs related to this data array (per thread) *)
}

type loop_op = { loop_var : string; trip : int; vertical : bool }

type ops_entry = {
  o_kernel : string;
  domain : int * int * int;
  block : int * int * int;
  arrays : array_op list;
  loops : loop_op list;
  nest_depth : int;
  active_fraction : float;
  stride : int;  (** unit-stride accesses in the canonical mapping *)
  shared_arrays : string list;  (** arrays also touched by other kernels *)
  irregular : string option;  (** why the kernel fell outside the subset, when it did *)
}

type t = {
  performance : perf_entry list;
  operations : ops_entry list;
  device : Kft_device.Device.t;
}

module Sim_cache = Sim_cache
(** The content-addressed simulation cache (see {!Sim_cache}). *)

val profile :
  ?cache:Sim_cache.t -> ?engine:Kft_engine.Engine.t ->
  ?backend:Kft_sim.Interp.backend -> ?trace:Kft_trace.Trace.t ->
  ?layout:Kft_sim.Memory.layout -> ?seed:int ->
  Kft_device.Device.t -> Kft_cuda.Ast.program -> Kft_sim.Profiler.run
(** {!Kft_sim.Profiler.profile} inside a [profile:<program>] span,
    through [cache] ({!Sim_cache.profile}); without one, through a
    fresh cache private to this call. A cached program is rebuilt from
    the content store, a new one runs launch by launch through the
    launch memo — block-parallel when [engine] is given, on [backend]
    when given. [layout] is ignored: a cached run holds no arena to
    place (see {!Sim_cache}). *)

val compare_outputs :
  cache:Sim_cache.t -> ?seed:int -> ?tol:float -> Kft_device.Device.t ->
  original:Kft_cuda.Ast.program * Kft_sim.Profiler.run ->
  transformed:Kft_cuda.Ast.program * Kft_sim.Profiler.run ->
  (unit, (string * float) list) result
(** Output verification of two runs already simulated from the same
    seed: the arrays common to both whose maximum absolute difference
    exceeds [tol] ({!Kft_sim.Profiler.output_diffs}). When both runs
    are [cache]'s unmodified runs of these programs at [seed], arrays
    with equal final content ids count as equal without a comparison. *)

val gather :
  ?cache:Sim_cache.t -> ?engine:Kft_engine.Engine.t ->
  ?backend:Kft_sim.Interp.backend -> ?trace:Kft_trace.Trace.t ->
  ?layout:Kft_sim.Memory.layout -> ?seed:int ->
  Kft_device.Device.t -> Kft_cuda.Ast.program -> t * Kft_sim.Profiler.run
(** The metadata-gathering stage: one instrumented run on the simulated
    device ({!profile}, through [cache] or a fresh one) plus static
    analysis of every kernel. [engine] runs it block-parallel;
    [layout] is ignored, as in {!profile}. *)

val find_perf : t -> string -> perf_entry
(** Raises [Not_found]. *)

val find_ops : t -> string -> ops_entry

val perf_to_text : perf_entry list -> string

val perf_of_text : string -> perf_entry list
(** Raises [Failure] with a line-oriented message on malformed input. *)

val ops_to_text : ops_entry list -> string

val ops_of_text : string -> ops_entry list

val to_files : t -> dir:string -> unit
(** Write [performance.meta], [operations.meta] and [device.meta]. *)

val of_files : dir:string -> t
