(** Semantic validation of kernels and programs.

    The parser accepts anything syntactically in the subset; this module
    performs the frontend's semantic checks before a program enters the
    transformation pipeline: identifier resolution, duplicate
    declarations, arity and binding of launches, and the structural
    restrictions the paper places on supported kernels (no barrier under
    a thread-dependent conditional is checked dynamically by the
    simulator; everything statically checkable is here). *)

type error = {
  where : string;  (** kernel or launch the error was found in *)
  loc : Loc.pos;  (** source position of the offending statement, or {!Loc.none} *)
  what : string;
}

val pp_error : error -> string
(** Uniform [where:what] rendering; [where:line:col:what] when a source
    position is known. *)

val dedupe : error list -> error list
(** Drop exact duplicates (same kernel, position and message), keeping
    first-occurrence order. Applied by {!kernel} and {!program}
    already; exposed for callers that merge several reports. *)

val kernel : Ast.kernel -> error list
(** Checks on one kernel:
    - every identifier is a parameter, a declared local, a loop index or
      a shared array;
    - no identifier is declared twice in the same scope chain;
    - scalars are not indexed and arrays are not used as scalars;
    - shared arrays are indexed with exactly their declared rank and
      global (pointer-parameter) arrays with a single linear index;
    - array parameters declared [const] are never written;
    - [__shared__] declarations have positive extents;
    - no [__syncthreads()] sits under a statically thread-dependent
      conditional or inside a loop whose trip count depends on
      [threadIdx] (the statically-detectable core of barrier
      divergence; the full analysis lives in [Kft_verify]). *)

val launch_args : declared:(string -> bool) -> Ast.kernel -> Ast.arg list -> string list
(** The mismatches between a launch's arguments and the kernel's
    parameters: arity, then per argument its kind (array, int, double)
    and, for an array, whether [declared] knows it.  [[]] when the
    launch binds. *)

val program : Ast.program -> error list
(** All kernel checks, plus:
    - kernel names are unique and arrays are declared once;
    - every launch names a defined kernel with matching arity;
    - array arguments are declared device arrays and scalar arguments
      match the parameter's type;
    - launch domains and blocks are positive and blocks respect a
      1024-thread ceiling. *)
