(** Semantic validation of kernels and programs.

    The parser accepts anything syntactically in the subset; this module
    performs the frontend's semantic checks before a program enters the
    transformation pipeline: identifier resolution, duplicate
    declarations, arity and binding of launches, and the structural
    restrictions the paper places on supported kernels, barrier
    divergence included ({!barrier_divergence}, the one analysis of it:
    [Kft_verify] reports the same findings). *)

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
    - every barrier is uniform across the block: each
      {!barrier_divergence} finding is an error. *)

val barrier_divergence : Ast.kernel -> (Loc.pos * Ast.stmt * string) list
(** Statements that can make a [__syncthreads()] diverge within a block,
    outermost first, each with its position (the closest located
    enclosing statement's when it has none) and one of three messages:
    - a barrier under a thread-dependent conditional;
    - a barrier inside a loop whose trip count is thread-dependent;
    - a thread-dependent [return] that a barrier can follow (later in
      an enclosing statement list or in an enclosing loop's body); a
      return after the last barrier is accepted.

    A value is thread-dependent when it is computed from [threadIdx]
    (blockIdx, blockDim and gridDim are uniform), directly or through
    scalars: a scalar is tainted by a thread-dependent right-hand side,
    by an assignment under a thread-dependent condition, or by an
    assignment inside a loop with a thread-dependent trip count (after
    the loop).  Each loop body is analysed until its tainted set stops
    growing, so taint carried from one iteration to the next counts.
    Statements nested under a finding are not reported again. *)

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
