(** Static race / barrier / bounds verifier with translation validation
    ("kft_verify").

    The transformation pipeline's soundness story used to rest on the
    informal legality rules of [Fusion.check_group] plus dynamic checks
    in the simulator: a race or a divergent barrier in a {e generated}
    fused kernel was only caught if a test input happened to trip it.
    This module proves the absence of those defects statically, per
    launch, with four cooperating passes:

    {ol
    {- {b Race freedom} — proved per launch from the Absint result
       the bounds pass computes anyway ({!Kft_analysis.Absint.prove_race_free}).
       Every access carries the affine form of its cell over the thread
       and block ids, loop trip counters and div/mod results, a static
       barrier-interval id, and the guard facts on its path.  Each pair
       of accesses to one host array or shared tile, at least one a
       write, must be settled by a named rule: read-only arrays; disjoint
       index ranges or coordinate boxes (boundary copies); forms that
       meet only within one thread (in-place own-cell updates); a read
       confined to the complement of the writer's guard box
       (produced-tile preloads); shared writes injective in the thread
       id and trip counter (cooperative tile loads, whose [[c / W][c % W]]
       subscripts fold back to [c]); shared accesses in different
       barrier intervals; global accesses in different barrier intervals
       that stay inside their block's tile; forms whose coefficients'
       gcd does not divide their constant difference (interleaved
       writes).  Global write-write pairs of one statement stay exempt
       (idempotent halo recompute); shared ones do not.  A launch no
       rule settles is a [race] diagnostic at the first site of the
       open pair, naming both sites and the rules tried: the verifier
       proves or rejects, it never samples.}
    {- {b Barrier divergence} — each finding of
       {!Kft_cuda.Check.barrier_divergence} (a barrier under a
       thread-dependent conditional or in a loop with a thread-dependent
       trip count, or a thread-dependent early return that a barrier can
       follow) is a [barrier] diagnostic.  The frontend rejects the same
       source kernels; here the analysis covers every emitted kernel.
       The race proof needs uniform barriers, so a divergent kernel gets
       no race analysis at all.}
    {- {b Bounds / halo checking} — Absint proves every access in
       bounds over the whole launch domain.  An access proved out of
       bounds, or not proved either way, is a [bounds] diagnostic with
       its proved index range and the extent.}
    {- {b Translation validation} — passes 1–3 run over every kernel
       [Codegen]/[Fusion] emit, and each fused group's legality is
       re-derived through [Fusion.check_group]; a source schedule
       dependence between two members of one fused kernel whose member
       order reverses it is a [translation] diagnostic on that kernel.
       A failed validation rejects the group (the framework re-emits its
       members unfused), mirroring {e and} cross-checking the forward
       legality rules.}
    {- {b Schedule validation} — the whole-schedule dataflow analysis
       of [Kft_schedflow.Schedflow] runs over the transformed schedule
       (flagging non-input arrays read before any write and stores
       never read back) and every RAW / WAR / WAW dependence of the
       source schedule DDG is checked to hold end-to-end in the
       transformed schedule.  Those direct dependences decide member
       order too: an order that holds only through a launch outside a
       fused group breaks one of them between kernels, and each fused
       kernel on either side of a broken one also gets a [translation]
       diagnostic, so the group is rejected.}}

    A launch whose arguments do not match its kernel's parameters
    (arity or kind) is one [engine] diagnostic and is not analyzed
    further. *)

type pass = Race | Barrier | Bounds | Translation | Schedule | Engine

val pass_name : pass -> string

type diagnostic = {
  d_kernel : string;  (** kernel the defect was found in *)
  d_pass : pass;
  d_loc : Kft_cuda.Loc.pos;
      (** source position of the offending statement when the kernel was
          parsed from text; {!Kft_cuda.Loc.none} for synthesized ASTs *)
  d_stmt : string;  (** one-line rendering of the offending statement *)
  d_array : string;
      (** array the finding is about, [""] when not array-specific. Part
          of the dedupe/order key, so two different-array findings at
          the same kernel:line:col both survive {!merge}. *)
  d_message : string;
}

val pp_diagnostic : diagnostic -> string
(** [kernel:line:col:[pass] message -- statement], matching the uniform
    [where:what] shape of [Cuda.Check.pp_error]. *)

type stats = {
  launches_checked : int;
  blocks_sampled : int;
  threads_walked : int;
  events : int;
      (** [blocks_sampled], [threads_walked] and [events] always read 0:
          nothing is sampled or walked.  They stay for the pipeline
          benchmark, which still reads them. *)
  bounds_proved : int;
      (** launches whose every access the Absint bounds pass proved
          in bounds *)
  bounds_fallback : int;
      (** launches left unproved, each reported as a diagnostic: an
          access not proved in bounds, or arguments that do not bind *)
  races_proved : int;
      (** launches proved race-free from the Absint access forms *)
  races_fallback : int;
      (** launches left unproved, each reported as a diagnostic: an
          unsettled access pair, divergent barriers, or arguments that
          do not bind *)
  sched_deps_checked : int;
      (** source schedule dependences checked end-to-end by {!validate} *)
  sched_fallback : int;
      (** source launches (or transformed members) the schedule mapping
          could not place — 0 means full schedule-DDG coverage *)
}

type report = {
  diagnostics : diagnostic list;
  stats : stats;
  complete : bool;  (** always [true]; kept for the pipeline benchmark *)
}

val empty_report : report

val pass_counts : report -> (string * int) list
(** Finding count per pass, always all six passes in declaration order
    — the deterministic per-pass counters the trace layer records. *)

val merge : report -> report -> report

val is_clean : report -> bool
(** No diagnostics at all (engine notes included: an advisory the engine
    could not resolve statically is not a clean bill). *)

val verify_launch : Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> report
(** Passes 1–3 over one launch of the program's schedule. *)

val verify_program : Kft_cuda.Ast.program -> report
(** Passes 1–3 over every launch of the schedule. *)

val validate :
  ?options:Kft_codegen.Fusion.options ->
  ?source_flow:Kft_schedflow.Schedflow.t ->
  ?flow:Kft_schedflow.Schedflow.t ->
  source:Kft_cuda.Ast.program ->
  Kft_codegen.Codegen.result ->
  report
(** Translation validation (passes 4–5) of a code-generation result
    against the [source] program it was derived from (post-fission):
    verifies every emitted kernel with passes 1–3, re-checks each fused
    group's legality through [Fusion.check_group] on freshly extracted
    canonical members, rejects fused kernels whose member order
    reverses a source schedule dependence (a [translation] diagnostic on
    the fused kernel, also for each fused kernel on either side of a
    dependence the transformed schedule reorders), and validates the whole
    transformed schedule against the source schedule DDG (pass [schedule]: issue
    checks plus end-to-end dependence preservation, with
    [sched_deps_checked] / [sched_fallback] recorded in the stats).
    Diagnostics carry the {e fused} kernel's name. [source_flow] is
    [Schedflow.analyze source] and [flow] is [Schedflow.analyze
    res.program] when the caller already has them. *)

(** Test-only access to the race proof. *)
module Internal : sig
  val race_verdict :
    Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> Kft_analysis.Absint.race_verdict option
  (** The race proof of one launch, whatever the barrier pass finds
      ([None] if the kernel is missing or the arguments do not match its
      parameters). *)
end
