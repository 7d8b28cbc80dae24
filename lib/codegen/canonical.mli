(** Canonicalization of fusion members.

    Before kernels can be fused their bodies must agree on a common
    coordinate system. This pass rewrites a kernel launch into the
    canonical form of the paper's supported subset: a 2D CUDA grid over
    the horizontal plane (global coordinates [gi], [gj]), an optional
    vertical loop ([kv]), and statements whose global-array accesses are
    explicit stencil offsets from the thread's own cell.

    Scalar parameters and problem dimensions are specialized to the
    launch constants (generated code is specialized to the profiled
    problem size); double-precision scalars and locals are suffixed with
    the member index so several members can coexist in one fused body. *)

type member = {
  m_name : string;  (** original kernel name *)
  m_index : int;  (** position within the fusion group *)
  m_launch : Kft_cuda.Ast.launch;
  m_guard : Kft_cuda.Ast.expr option;  (** canonical guard over [gi]/[gj] *)
  m_kloop : (int * int) option;  (** vertical loop bounds [lo, hi) *)
  m_body : Kft_cuda.Ast.stmt list;
      (** canonicalized statements; vertical loop variable is ["kv"],
          global coordinates are ["gi"]/["gj"] *)
  m_domain : int * int * int;
  m_nest_depth : int;
  m_reads : (string * (int * int * int) list) list;
      (** host array -> read offsets (deduplicated) *)
  m_writes : (string * (int * int * int) list) list;
  m_double_args : (string * float) list;  (** fused parameter name -> value *)
  m_arrays : (string * Kft_cuda.Ast.array_decl) list;  (** host array name -> declaration *)
}

exception Not_canonical of string

val gi_var : string
val gj_var : string
val kv_var : string

val wild_offset : int
(** Sentinel magnitude recorded for accesses swept by a loop variable
    other than the canonical coordinates (e.g. a vertical-band inner
    loop): such an access is not a fixed stencil offset and defeats the
    locality rules that rely on one. *)

val extract :
  deep:[ `Sequential | `Inner_shared ] ->
  index:int ->
  Kft_cuda.Ast.program ->
  Kft_cuda.Ast.launch ->
  member
(** Raises {!Not_canonical} when the kernel falls outside the supported
    subset (the framework then reports the kernel as unfusable and emits
    it unchanged). Under [`Sequential], kernels with loop-nest depth >= 2
    keep their whole nest opaque (no [m_kloop]) — the auto-codegen
    behaviour behind the Figure 6 performance gap; under
    [`Inner_shared] the outermost vertical loop is hoisted so staging
    can happen inside it. *)

val reads_of : member -> string -> (int * int * int) list

val writes_of : member -> string -> (int * int * int) list

val touched_arrays : member -> string list
(** Host arrays read or written, in first-touch order. *)

val dims3 : int list -> int * int * int
(** An array's dims (innermost first) as [(nx, ny, nz)], padded with 1s;
    raises {!Not_canonical} beyond three. *)

val linear_index :
  Kft_cuda.Ast.array_decl ->
  x:Kft_cuda.Ast.expr ->
  y:Kft_cuda.Ast.expr ->
  z:Kft_cuda.Ast.expr option ->
  Kft_cuda.Ast.expr
(** Rebuild the canonical linearized index [((z·NY)+y)·NX+x] for an
    array, folding away degenerate dimensions. *)
