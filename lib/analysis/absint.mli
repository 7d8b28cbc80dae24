(** Forward abstract interpreter over the CUDA subset.

    The domain is a reduced product of saturating integer intervals and
    symbolic affine forms over the launch symbols (threadIdx, blockIdx)
    and loop induction variables, with blockDim / gridDim / integer
    kernel arguments folded in as constants of a concrete launch.  On
    the stencil subset this is precise enough to *prove* every global
    and shared access in bounds, to decide generated guards, and to
    predict per-kernel global traffic exactly for affine kernels.

    It is the one place an index expression becomes an affine form, and
    the one place outside the simulator that evaluates an integer
    expression.  Clients:
    - {!analyze_kernel} / {!analyze_launch}: proved bounds and per-array
      footprints (kft_verify's bounds pass);
    - {!prove_race_free}: kft_verify's race proof, from the race forms,
      barrier intervals and guard facts the access records carry;
    - {!simplify_kernel}: guard elimination for fused kernels — an [If]
      whose condition is decided by the block domain is spliced away;
    - the access / guard records consumed by kft_absint's [Lint];
    - {!Access}: stencil offsets, loops and [irregular] reasons of the
      operations metadata, from the product forms ({!acc_aff}) and
      {!res_loops}, and the guard coverage, from the {!affine_of_expr}
      of each conjunct of the top-level guard;
    - {!Cost}: loop trip counts, through {!const_of_expr};
    - kft_codegen's [Canonical] and [Fusion]: canonical stencil
      indices, through {!affine_of_expr} and {!split_offset}, and
      [Canonical]'s vertical-loop bounds, through {!const_of_expr}. *)

type itv = { lo : int; hi : int }
(** Closed integer interval, saturating at [+-big] (2{^44}). *)

val itv_width : itv -> int
val pp_itv : itv -> string

type status =
  | Proved  (** every concrete index lies inside the extent *)
  | Oob  (** every concrete index lies outside the extent *)
  | Unknown  (** the interval straddles the extent: not proved either way *)

type space = Global | Shared

type form
(** An affine form [sum c_i * s_i + c] over integer symbols: [0]-[2]
    are threadIdx.x/y/z, [3]-[5] blockIdx.x/y/z, and each loop gets
    further symbols ({!loop}).  An access carries two: the product form
    that decides bounds and guards, and the race form, which widens the
    symbol universe with one trip counter per loop (a loop index is
    [lo + step * m]) and one symbol per distinct [p / d] or [p % d] with
    constant [d]. *)

val global_affine :
  block:int * int * int -> grid:int * int * int -> form -> ((int * int) list * int) option
(** The nonzero [(symbol, coefficient)] terms of a form, by increasing
    symbol, with the blockIdx terms dropped, and its constant: [None]
    unless each thread id enters as [blockIdx.d * blockDim.d +
    threadIdx.d], the global coordinate.  A dimension whose grid is one
    block is exempt: its blockIdx is 0, and the analysis folds its
    product away. *)

type fact
(** A path condition: an affine form lies in an interval. *)

type access = {
  acc_array : string;  (** kernel parameter name *)
  acc_space : space;
  acc_write : bool;
  acc_loc : Kft_cuda.Loc.pos;
  acc_status : status;
  acc_range : itv;  (** linearized index interval *)
  acc_extent : int;  (** cells (global) or product of declared dims (shared) *)
  acc_tx_stride : int option;
      (** d(linearized index)/d(threadIdx.x) when the index is affine *)
  acc_bytes : float;  (** estimated global traffic of this site, bytes *)
  acc_exact : bool;  (** the traffic estimate is exact, not an upper bound *)
  acc_aff : form option;
      (** product form of a global linearized index, over the thread and
          block ids and each loop's {!loop.lp_sym} (the loop index
          itself); [None] when not affine, and on shared accesses *)
  acc_form : form option;
      (** race form of the linearized index; on a shared tile of inner
          dimension [W], subscripts [[a / W][a % W]] fold back to [a]
          when [a >= 0] *)
  acc_interval : int;
      (** static barrier interval: two accesses of one block with
          different ids are separated by a [__syncthreads()] *)
  acc_facts : fact list;  (** conditions of the enclosing then-branches *)
  acc_outside : fact list list;
      (** guard boxes of enclosing else-branches: the access runs only
          where not every fact of the box holds *)
}

type guard = {
  gu_loc : Kft_cuda.Loc.pos;
  gu_cond : string;  (** pretty-printed condition *)
  gu_decided : bool option;  (** [Some b]: statically decided, i.e. dead *)
  gu_thread_dep : bool;  (** condition depends on the thread id: divergent *)
  gu_frac : float;  (** estimated fraction of threads taking the then branch *)
}

type footprint = { fp_reads : itv option; fp_writes : itv option }

type loop = {
  lp_index : string;  (** the loop's index variable *)
  lp_sym : int;  (** its symbol in product forms *)
  lp_trips : int option;  (** trip count, when both bounds are constant *)
}

type syms
(** Ranges of the symbols race forms are built over. *)

type result = {
  res_kernel : string;
  res_accesses : access list;
      (** in evaluation order; a store follows its index and precedes
          the reads of its right-hand side *)
  res_guards : guard list;
  res_proved : int;  (** accesses with status [Proved] *)
  res_unknown : int;
  res_oob : int;
  res_all_proved : bool;  (** no [Unknown], no [Oob]: bounds are proved *)
  res_est_bytes : float;  (** summed global-traffic estimate *)
  res_est_exact : bool;  (** every estimate exact and no early [return] *)
  res_footprints : (string * footprint) list;
      (** per global array (parameter name), sorted *)
  res_loops : loop list;
      (** loops the walk entered, in program order; a loop proved
          zero-trip or in a branch proved dead is not entered *)
  res_syms : syms;
}

val analyze_kernel :
  block:int * int * int ->
  grid:int * int * int ->
  int_params:(string * int) list ->
  global_cells:(string * int) list ->
  Kft_cuda.Ast.kernel ->
  result
(** Abstractly execute one kernel under a concrete launch shape.
    [int_params] binds integer scalar parameters to their argument
    values; [global_cells] gives the extent of each global array
    parameter.  Never raises on subset programs. *)

val analyze_launch :
  Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> result option
(** Resolve a launch against its program (kernel lookup, argument
    binding, array extents) and analyze it.  [None] if the kernel is
    missing or the arguments do not match the parameter list. *)

val simplify_kernel :
  block:int * int * int ->
  grid:int * int * int ->
  int_params:(string * int) list ->
  Kft_cuda.Ast.kernel ->
  Kft_cuda.Ast.kernel * int
(** Guard elimination: rebuild the kernel body, splicing away every
    [If] whose condition the domain decides ([If c t e] becomes [t]
    when [c] is proved true, [e] when proved false).  Returns the
    rewritten kernel and the number of guards eliminated.  Sound by
    construction — only decided conditions are touched — and intended
    to be translation-validated by kft_verify downstream. *)

val affine_of_expr :
  ?launch:(int * int * int) * (int * int * int) ->
  vars:string list ->
  Kft_cuda.Ast.expr ->
  ((string * int) list * int) option
(** Product form of an integer expression over the named variables,
    each a free symbol, as nonzero coefficients plus the constant.
    Under [launch] ([(block, grid)]) the thread and block ids are
    symbols over their ranges, [blockDim]/[gridDim] are constants, and
    the terms are those of {!global_affine}, the thread ids named ["gx"],
    ["gy"] and ["gz"].  Without [launch] any builtin makes the
    expression non-affine.  [None] when not affine: a [min], [max],
    [%], inexact [/], or a ternary the ranges do not decide. *)

val const_of_expr : bindings:(string * int) list -> Kft_cuda.Ast.expr -> int option
(** The value of an integer expression whose variables are bound to
    constants (the first binding of a name wins), folded by the interval
    domain: literal arithmetic, [/] and [%] with OCaml's truncation,
    [min], [max], [abs], comparisons, [&&], [||], [!] and decided
    ternaries.  [None] when it is not one integer: an unbound variable,
    a builtin, an array read, a double, or a division by zero.  The
    domain saturates at [+-2{^44}], so a value at that bound is [None]
    and one that overflows it on the way is not folded exactly. *)

val split_offset : int list -> int -> int list
(** The constant of a linearized index over [dims] (innermost first),
    split into one offset per coordinate, nearest to zero from the
    outermost coordinate in: [split_offset [nx; ny; nz] (nx * ny - 1)]
    is [[-1; 0; 1]].  The one stencil-offset decomposition. *)

val regions_disjoint : itv -> itv -> bool
(** No cell lies in both intervals.  The one region test shared by the
    race prover and kft_schedflow's dependence refinement. *)

type unsettled = {
  un_loc : Kft_cuda.Loc.pos;  (** the first site of the pair *)
  un_why : string;
      (** the pair, e.g. ["write of B at 6:5 may meet write of B at 7:5"],
          or ["bounds are not proved"] *)
  un_tried : string list;  (** the rules the pair was checked against *)
}

type race_verdict =
  | Race_free of string list
      (** no two distinct threads of the launch touch one cell with at
          least one write and no ordering barrier; carries the sorted
          names of the rules that settled the access pairs *)
  | Race_unsettled of unsettled  (** the first pair no rule settles *)

val prove_race_free :
  host_of:(string -> string) -> dims_of:(string -> int list option) -> result -> race_verdict
(** Prove one analyzed launch race-free, pair by pair over the accesses
    to one memory: a host array ([host_of] maps each array parameter to
    it, so aliases meet) or a shared tile.  Requires every bound proved.
    Rules, by name:
    - [read-only]: an array no access writes;
    - [injective-write]: a write meeting itself whose form is injective
      in the thread id (block ids too on global memory) and trip
      counters, so no other thread meets it;
    - [same-site]: any other global write meeting itself in another
      thread (exempt: halo recompute rewrites the same value);
    - [barrier]: shared accesses in different barrier intervals;
    - [disjoint-ranges]: disjoint index intervals, or coordinate guard
      boxes ([dims_of] gives a host array's dimensions, innermost first)
      that miss each other;
    - [own-cell]: the forms can only coincide for one thread;
    - [outside-guard]: one access's guard box lies inside a box the
      other is guarded to stay outside of;
    - [block-tile]: global accesses in different barrier intervals
      whose cells, per block, lie inside a tile of that block (each
      block symbol alone drives one coordinate, with a coefficient wider
      than the rest of the coordinate spans), so only threads of one
      block, which the barrier orders, can meet;
    - [gcd]: the gcd of all coefficients of both forms does not divide
      the difference of their constants (interleaved writes [2*i] and
      [2*i + 1]).
    A launch with an access not proved in bounds is unsettled at that
    access, with no rule tried. *)

val launch_race_verdict :
  Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> result -> race_verdict
(** {!prove_race_free} on the analysis of [launch]: array parameters
    meet through the host arrays the launch binds them to, whose
    declared dimensions split global indices into coordinates. *)

val thread_box : int * int * int -> int * int * int -> int * int * int
(** [thread_box domain block]: the threads a launch runs per dimension,
    [ceil(domain / block) * block]. *)

type grant =
  | Any_order
      (** {!launch_race_verdict} proves the launch race-free without the
          [same-site] exemption, so every bound is proved and no thread
          touches a cell another thread writes between two barriers; the
          kernel has no [return]; and every integer [/] and [%] divides
          by an expression that folds ({!const_of_expr}) to a nonzero
          constant under the launch's integer arguments, [blockDim] and
          [gridDim]. No access can fault and no thread observes another
          thread's writes, so every order of the threads between
          barriers gives the same memory and the same simulator stats. *)
  | Same_site_order
      (** As [Any_order], except that the race proof used the
          [same-site] exemption: a global write may meet itself in
          another thread, and every other pair is settled. A cell such
          a write hits from two threads is touched by that write only,
          so any order of the threads that keeps, per cell, the last
          hit of the highest thread gives the same memory and stats. *)
  | Thread_order  (** Anything else: threads must run in thread order. *)

type license
(** The order a launch's threads may run in, statement by statement: a
    lazy proof, analyzed at most once, when first asked. *)

val license : Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> license

val grant : license -> grant
(** Decide the license (analyzing the launch the first time). *)

val licensed : license -> bool
(** [grant license = Any_order]. *)

val block_invariant :
  ?license:license ->
  Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> block:int * int * int -> bool
(** Running [launch] with block [block] instead of its own has the same
    memory effect and the same simulator stats, apart from
    [blocks_launched]. It holds when:
    - the kernel has no [__shared__] array and no [__syncthreads()];
    - every builtin occurs only as [blockIdx.d * blockDim.d +
      threadIdx.d] (either operand order), so a thread sees nothing but
      its global coordinate;
    - both blocks are nonempty with an x-width that is a multiple of 32,
      so every warp is the same 32 cells of one row;
    - the rounded-up thread box [ceil(domain / b) * b] is the same under
      both blocks in every dimension;
    - the launch is {!licensed}.
    The threads, their warps and each thread's accesses are then the
    same under both blocks, and their order cannot matter. [block =
    launch.l_block] checks the launch alone: its meaning is then a
    function of its thread box. [license], when given, is the launch's
    {!license}; it is decided only if the other conditions hold. *)
