(** Forward abstract interpreter over the CUDA subset.

    The domain is a reduced product of saturating integer intervals and
    symbolic affine forms over the launch symbols (threadIdx, blockIdx)
    and loop induction variables, with blockDim / gridDim / integer
    kernel arguments folded in as constants of a concrete launch.  On
    the stencil subset this is precise enough to *prove* every global
    and shared access in bounds, to decide generated guards, and to
    predict per-kernel global traffic exactly for affine kernels.

    Four clients:
    - {!analyze_kernel} / {!analyze_launch}: proved bounds and per-array
      footprints (kft_verify's bounds pass);
    - {!prove_race_free}: kft_verify's race proof, from the race forms,
      barrier intervals and guard facts the access records carry;
    - {!simplify_kernel}: guard elimination for fused kernels — an [If]
      whose condition is decided by the block domain is spliced away;
    - the access / guard records consumed by {!Lint}. *)

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
(** Race form of an index: an affine form over the thread and block
    ids, one trip counter per loop (a loop index is [lo + step * m]) and
    one symbol per distinct [p / d] or [p % d] with constant [d].  Kept
    apart from the forms that decide bounds and guards. *)

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

type syms
(** Ranges of the symbols race forms are built over. *)

type result = {
  res_kernel : string;
  res_accesses : access list;  (** in evaluation order *)
  res_guards : guard list;
  res_proved : int;  (** accesses with status [Proved] *)
  res_unknown : int;
  res_oob : int;
  res_all_proved : bool;  (** no [Unknown], no [Oob]: bounds are proved *)
  res_est_bytes : float;  (** summed global-traffic estimate *)
  res_est_exact : bool;  (** every estimate exact and no early [return] *)
  res_footprints : (string * footprint) list;
      (** per global array (parameter name), sorted *)
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
    - [same-site]: a global write meeting itself in another thread
      (exempt: halo recompute rewrites the same value);
    - [injective-write]: a shared write whose form is injective in the
      thread id and trip counters;
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
