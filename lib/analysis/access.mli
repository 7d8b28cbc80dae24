(** Static stencil-access analysis (the "operations metadata" extractor,
    Section 5.1).

    For each global-memory access of a kernel, recover — under the
    paper's canonical mapping (CUDA grid covers the horizontal plane,
    possibly a loop iterating the vertical dimension) — the stencil
    offset (dx, dy, dz) relative to the thread's own cell.

    The affine forms come from {!Absint}: each global access's product
    form over the thread and block ids and the loop indices. Its
    coefficients are matched against the array's strides, and its
    constant is split into the offset by {!Absint.split_offset}. Kernels
    using non-affine or non-canonical indexing are reported as
    {!Irregular}, which downstream stages treat conservatively (excluded
    from fusion), mirroring the paper's "Data access" limitation. *)

type rw = Read | Write

type access = {
  array : string;
  rw : rw;
  offset : int * int * int;  (** (dx, dy, dz) stencil displacement *)
}

type loop_info = {
  loop_var : string;
  trip_count : int;  (** 0 unless both bounds are launch constants *)
  dimension : [ `Vertical | `Other ];
      (** [`Vertical] when the loop strides the z dimension of an
          accessed array with nz > 1 (the canonical k-loop). *)
}

type kernel_access_info = {
  accesses : access list;
      (** in {!Absint}'s evaluation order: a store before the reads of
          its right-hand side *)
  loops : loop_info list;  (** {!Absint.res_loops}: the loops the analysis entered *)
  max_nest_depth : int;  (** loop-nest depth; > 1 flags "deep nested loops" (Fig. 6 defect) *)
  active_fraction : float;
      (** fraction of the launch domain's cells passing the kernel's
          top-level guard (the first [if] without an else that follows
          only declarations; 1.0 when unguarded).  Exact when the guard
          is a box: a conjunction whose every conjunct is decided by the
          launch or bounds one global coordinate with coefficient +-1,
          read from {!Absint.affine_of_expr}.  Any other guard gets 1.0,
          the value an {!Irregular} kernel gets too. *)
}

type failure_reason =
  | Non_affine_index of string  (** array whose index has no affine form *)
  | Non_canonical_mapping of string
  | Mutated_index_variable of string
  | Unsupported_feature of string

exception Irregular of failure_reason

val reason_to_string : failure_reason -> string

type launch_env = {
  block : int * int * int;
  domain : int * int * int;
  grid : int * int * int;  (** blocks per dimension *)
  int_args : (string * int) list;  (** scalar int params bound at launch *)
  array_dims : (string * int list) list;
      (** dims of each array parameter's bound array, innermost first *)
  param_binding : (string * string) list;
      (** array parameter name -> host array name *)
}

val env_of_launch : Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> launch_env
(** Build the analysis environment from a program's launch record. *)

val analyze : Kft_cuda.Ast.kernel -> launch_env -> kernel_access_info
(** Raises {!Irregular} when the kernel falls outside the supported
    subset. *)

val analyze_result : Kft_cuda.Ast.kernel -> launch_env -> (kernel_access_info, failure_reason) result

val stencil_radius : kernel_access_info -> string -> int * int * int
(** Per-dimension radius (max |offset|) of reads of the given array;
    (0,0,0) when the array is only written or absent. *)

val read_offsets : kernel_access_info -> string -> (int * int * int) list

val writes_arrays : kernel_access_info -> string list

val reads_arrays : kernel_access_info -> string list

val max_depth : Kft_cuda.Ast.stmt list -> int
(** Loop-nest depth of a body. *)

val stencil_offset : int list -> int -> int * int * int
(** {!Absint.split_offset} of a linearized index's constant over an
    array's dims (one to three, innermost first), as (dx, dy, dz). *)

val specialize : launch_env -> Kft_cuda.Ast.kernel -> Kft_cuda.Ast.stmt list
(** Specialize a kernel body to its launch: substitute
    [blockDim]/[gridDim] and integer scalar parameters by their launch
    constants, inline immutable integer declarations into all uses, and
    drop the now-dead integer declarations. The result is the form the
    code generator rewrites (generated kernels are specialized to the
    profiled problem size — the paper's "sensitivity to input"
    limitation, Section 7). *)
