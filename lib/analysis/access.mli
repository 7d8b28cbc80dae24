(** Static stencil-access analysis (the "operations metadata" extractor,
    Section 5.1).

    For each global-memory access of a kernel, recover — under the
    paper's canonical mapping (CUDA grid covers the horizontal plane,
    possibly a loop iterating the vertical dimension) — the stencil
    offset (dx, dy, dz) relative to the thread's own cell.

    The analysis is numeric-affine: integer index declarations are
    inlined, then the index expression is probed at unit displacements of
    the thread coordinates and loop indices to recover its affine
    coefficients, which are matched against the array's strides. Kernels
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
  trip_count : int;
  dimension : [ `Vertical | `Other ];
      (** [`Vertical] when the loop strides the z dimension of the
          accessed arrays (the canonical k-loop). *)
}

type kernel_access_info = {
  accesses : access list;
  loops : loop_info list;
  max_nest_depth : int;  (** loop-nest depth; > 1 flags "deep nested loops" (Fig. 6 defect) *)
  active_fraction : float;
      (** fraction of launched threads passing the kernel's top-level
          guard (1.0 when unguarded); evaluated over the launch domain,
          sampled on one z-plane for large domains *)
}

type failure_reason =
  | Non_affine_index of string  (** array whose index defeated the probe *)
  | Non_canonical_mapping of string
  | Mutated_index_variable of string
  | Unsupported_feature of string

exception Irregular of failure_reason

val reason_to_string : failure_reason -> string

type launch_env = {
  block : int * int * int;
  domain : int * int * int;
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

(** {1 Low-level probing API}

    Exposed for sibling analyses (cost estimation, classification) and
    tests. *)

type probe = {
  thread : int * int * int;
  block_idx : int * int * int;
  bindings : (string * int) list;
}

exception Not_integer of string

val eval_int : probe -> Kft_cuda.Ast.expr -> int
(** Integer evaluation of an index/guard expression under a probe
    assignment. Raises {!Not_integer} on non-integer constructs. *)

val specialize : launch_env -> Kft_cuda.Ast.kernel -> Kft_cuda.Ast.stmt list
(** Specialize a kernel body to its launch: substitute
    [blockDim]/[gridDim] and integer scalar parameters by their launch
    constants, inline immutable integer declarations into all uses, and
    drop the now-dead integer declarations. The result is the form the
    code generator rewrites (generated kernels are specialized to the
    profiled problem size — the paper's "sensitivity to input"
    limitation, Section 7). *)

val affine_of_expr :
  launch_env ->
  loops:string list ->
  Kft_cuda.Ast.expr ->
  ((string * int) list * int) option
(** Affine coefficients of a (specialized) integer expression over the
    pseudo-variables ["gx"], ["gy"], ["gz"] (global thread coordinates)
    and the loop variables in scope, plus the constant term. [None] when
    the expression is not affine or mixes thread/block indices in a
    non-canonical way. *)

