(** Static race / barrier / bounds verifier with translation validation
    ("kft_verify").

    The transformation pipeline's soundness story used to rest on the
    informal legality rules of [Fusion.check_group] plus dynamic checks
    in the simulator: a race or a divergent barrier in a {e generated}
    fused kernel was only caught if a test input happened to trip it.
    This module proves the absence of those defects statically, per
    launch, with four cooperating passes:

    {ol
    {- {b Race freedom} — proved per launch from the kft_absint result
       the bounds pass computes anyway ({!Kft_absint.Absint.prove_race_free}).
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
       barrier intervals.  Global write-write pairs of one statement stay
       exempt (idempotent halo recompute); shared ones do not.  A launch
       no rule settles falls back to the concrete thread walk: every
       thread of a sampled set of blocks (grid corners plus their first
       interior neighbours, at most 8) is executed statement by
       statement, and two accesses to one cell by distinct threads inside
       one barrier interval, at least one a write, are a race.  The walk
       is unsound (a race in an unsampled block goes unseen), hence
       [races_fallback] in the stats.}
    {- {b Barrier divergence} — statically proves no barrier sits under
       a thread-dependent conditional or inside a loop whose trip count
       depends on [threadIdx] (a taint analysis from [threadIdx] through
       scalar assignments; the simulator only catches this dynamically).
       The race proof needs uniform barriers, so a divergent kernel gets
       no race analysis at all.}
    {- {b Bounds / halo checking} — kft_absint proves every access in
       bounds over the whole launch domain, reporting proved
       out-of-bounds accesses with their index range; a launch with an
       access it cannot decide falls back to checking every subscript
       of the sampled walk against the extent.}
    {- {b Translation validation} — passes 1–3 run over every kernel
       [Codegen]/[Fusion] emit, and fused kernels are additionally
       checked to preserve the member-order dependences recorded in the
       source program's DDG/OEG, with the group's legality re-derived
       through [Fusion.check_group]. A failed validation rejects the
       group (the framework re-emits its members unfused), mirroring
       {e and} cross-checking the forward legality rules.}
    {- {b Schedule validation} — the whole-schedule dataflow analysis
       of [Kft_schedflow.Schedflow] runs over the transformed schedule
       (flagging non-input arrays read before any write and stores
       never read back) and every RAW / WAR / WAW dependence of the
       source schedule DDG is checked to hold end-to-end in the
       transformed schedule, complementing the per-group member-order
       check with inter-kernel coverage.}}

    An event budget bounds the fallback walk; exhausting it marks the
    report incomplete rather than wrong. *)

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
  blocks_sampled : int;  (** blocks of the fallback walks only *)
  threads_walked : int;  (** threads of the fallback walks only *)
  events : int;  (** statements executed by the fallback walks only *)
  bounds_proved : int;
      (** launches whose every access the kft_absint bounds pass proved
          in bounds (no sampling needed for subscripts) *)
  bounds_fallback : int;
      (** launches with at least one access the abstract domain could
          not decide: the sampled bounds walk remains authoritative *)
  races_proved : int;
      (** launches proved race-free from the kft_absint access forms *)
  races_fallback : int;
      (** launches the proof could not settle: the sampled thread walk
          decides them (unsound outside the sampled blocks) *)
  sched_deps_checked : int;
      (** source schedule dependences checked end-to-end by {!validate} *)
  sched_fallback : int;
      (** source launches (or transformed members) the schedule mapping
          could not place — 0 means full schedule-DDG coverage *)
}

type report = {
  diagnostics : diagnostic list;
  stats : stats;
  complete : bool;  (** [false] when the event budget was exhausted *)
}

val empty_report : report

val pass_counts : report -> (string * int) list
(** Finding count per pass, always all six passes in declaration order
    — the deterministic per-pass counters the trace layer records. *)

val merge : report -> report -> report

val is_clean : report -> bool
(** No diagnostics at all (engine notes included: an advisory the engine
    could not resolve statically is not a clean bill). *)

val default_budget : int

val verify_launch :
  ?budget:int -> Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> report
(** Passes 1–3 over one launch of the program's schedule. *)

val verify_program : ?budget:int -> Kft_cuda.Ast.program -> report
(** Passes 1–3 over every launch of the schedule. *)

val validate :
  ?budget:int ->
  ?options:Kft_codegen.Fusion.options ->
  source:Kft_cuda.Ast.program ->
  Kft_codegen.Codegen.result ->
  report
(** Translation validation (passes 4–5) of a code-generation result
    against the [source] program it was derived from (post-fission):
    verifies every emitted kernel with passes 1–3, re-checks each fused
    group's legality through [Fusion.check_group] on freshly extracted
    canonical members, rejects fused kernels whose member order
    contradicts the source OEG, and validates the whole transformed
    schedule against the source schedule DDG (pass [schedule]: issue
    checks plus end-to-end dependence preservation, with
    [sched_deps_checked] / [sched_fallback] recorded in the stats).
    Diagnostics carry the {e fused} kernel's name. *)

(** Test-only access to the race proof and to its fallback walker. *)
module Internal : sig
  val walk_all_blocks :
    ?budget:int -> Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> report
  (** Passes 1–3 on one launch with the race proof off and the thread
      walk over every block of the grid instead of the sampled ones: the
      exhaustive oracle the race proof is tested against. Its cost grows
      with the grid; meant for small launches. *)

  val race_verdict :
    Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> Kft_absint.Absint.race_verdict option
  (** The race proof of one launch ([None] if the launch does not
      resolve against the program). *)
end
