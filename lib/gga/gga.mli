(** Customized Grouped Genetic Algorithm (Sections 2, 4.1, 5.4).

    Individuals are partitions of the target kernel invocations into
    fusion groups; the grouping-aware operators (Falkenauer-style group
    injection crossover, split/merge/move mutation) manipulate groups,
    not genes, so offspring remain valid partitions.

    Fitness is the projected-GFLOPS objective penalized per the dynamic
    penalty function of Section 4.1: each violated constraint adds a
    constant penalty [C_i]; a violated shared-memory capacity constraint
    is *relaxed* when some member can be fissioned — lazy fission
    replaces the member by its pre-profiled parts (keeping in the group
    only the parts that share data with the rest) — and penalized harder
    ([c_sm_stuck]) when no member can. *)

type params = {
  population : int;
  generations : int;
  crossover_rate : float;
  mutation_rate : float;
  tournament : int;
  elitism : int;
  seed : int;
  c_violation : float;  (** [C_i]: penalty per violated precedence/subset constraint *)
  c_sm_stuck : float;  (** penalty when the shared-memory constraint is violated and no fission can relax it *)
  fission_enabled : bool;  (** lazy fission on/off (ablation) *)
}

val default_params : params
(** The paper's defaults: population 100, 500 generations. *)

val params_to_text : params -> string

val params_of_text : string -> params
(** Round-trip of the parameter file the programmer may edit
    (Section 3.2.4). Raises [Failure] naming the line on malformed
    input: a line without [=], or a value its key cannot take. *)

type problem = {
  model : int -> Kft_perfmodel.Perfmodel.unit_model;
      (** the model of a unit or part id; its [unit_name] is the unit's
          name in a {!solution} and ranks it (below) *)
  units : int list;  (** target kernel invocations (filtered; in schedule order) *)
  fission_parts : (int * int list) list;
      (** lazy-fission pre-step: per fissionable unit, its parts *)
  part_arrays : (int * string list) list;
      (** host arrays touched per fission part (to decide which parts
          stay in the violating group) *)
  feasible : int list -> bool;
      (** may this set of units be fused? (OEG quotient acyclicity) *)
  solution_feasible : groups:int list list -> fissioned:int list -> bool;
      (** joint schedulability of a whole solution: contracting every
          group simultaneously must leave the OEG acyclic (two
          individually feasible groups can still deadlock each other) *)
  eval_group : int list -> Kft_perfmodel.Perfmodel.group_eval;
      (** projection of one group; a solution's objective (higher is
          better) is {!Kft_perfmodel.Perfmodel.solution_gflops} of its
          groups' projections, in solution order *)
  shared_ok : int list -> bool;
      (** does the group's staging footprint fit per-block shared memory? *)
}
(** A search over the caller's unit ids: distinct non-negative ints (the
    framework's unit table numbers invocations and fission parts
    densely), used as array indices. Names appear only in the returned
    {!solution}. Once per search, each id is ranked by its model's
    [unit_name] in [compare] order, and every canonical form and
    tie-break orders ids by rank, so the outcome does not depend on the
    numbering.

    The callbacks must be pure functions of their (ordered) argument: the
    search calls each at most once per distinct member list and reuses
    the verdict. *)

module Groups : Hashtbl.S with type key = int list
(** Tables keyed by ordered id lists, hashing every id (the generic hash
    stops after ten values, too few to tell large groups apart). *)

type solution = {
  groups : string list list;  (** unit names *)
  fissioned : string list;  (** original kernels replaced by their parts *)
  fitness : float;
  raw_objective : float;
  violations : int;
}

type engine_stats = {
  es_jobs : int;  (** width of the caller's engine (scoring itself runs in the calling domain) *)
  es_memo : bool;  (** was the fitness memo cache enabled? *)
  es_requested : int;  (** fitness evaluations requested (= [evaluations]) *)
  es_computed : int;  (** distinct evaluations actually computed *)
  es_hit_rate : float;  (** [1 - computed/requested]: fraction served by the memo *)
  es_verdicts : int;  (** distinct groups whose verdicts the search computed *)
  es_search_wall_s : float;  (** wall-clock seconds of the whole search *)
  es_gen_wall_s : float;  (** average wall-clock seconds per generation *)
}
(** Throughput statistics of one search. The wall-clock fields are the
    only non-deterministic part of a {!result}; everything else is
    bit-identical for a fixed [params.seed] at any worker count, with the
    memo cache on or off. *)

type result = {
  best : solution;
  history : (int * float) list;  (** (generation, best fitness) when improved *)
  fission_events : int;
  avg_fissions_per_generation : float;
  converged_at : int;  (** first generation within 0.1 % of the final best *)
  evaluations : int;  (** fitness evaluations requested (memo hits included) *)
  engine_stats : engine_stats;
}

val run :
  ?on_generation:(int -> solution -> unit) ->
  ?engine:Kft_engine.Engine.t ->
  ?trace:Kft_trace.Trace.t ->
  params -> problem -> result
(** Raises [Invalid_argument] naming the field unless [population >= 1],
    [generations >= 0], [tournament >= 1] and [elitism >= 0].

    Deterministic for a fixed [params.seed]. Everything runs in the
    calling domain: each generation is bred (every RNG draw, in a fixed
    order), then scored genome by genome. Genomes are canonicalized
    before evaluation, making fitness a pure function of the canonical
    genome, so the memo cache and the per-search table of group verdicts
    (see {!Internal.evaluate}) are transparent: [best]/[history]/
    [evaluations]/[fission_events] are bit-identical with the cache on or
    off.

    [trace] records one [gen:<n>] span per generation ([gen:0] is the
    initial scoring) with evaluation counters and population fitness
    stats, and under it a [breed] span (not in [gen:0]) and a [score]
    span whose [verdicts] counter counts the groups first scored in that
    generation — all deterministic (the trace's canonical channel).

    [engine] only sets the memo policy (default: on) and the width
    reported in {!engine_stats}: scoring a genome from the verdict table
    costs less than handing it to a worker domain. *)

(** Search internals exposed for the property-test suite ([test_gga]).
    Not part of the stable API. *)
module Internal : sig
  type genome = { g_groups : int list list; g_fissioned : int list }

  type space
  (** A problem's per-search tables over its ids: each id's rank, its
      parts and the host arrays it touches. *)

  val space : problem -> space

  type verdicts
  (** Group verdicts (shared-memory fit, violated constraints,
      projection) per distinct ordered member list. *)

  val verdicts : unit -> verdicts  (** a fresh, empty table *)

  val normalize : space -> genome -> genome
  (** Canonical form, ordering ids by rank: members sorted within
      groups, groups sorted, fissioned set sorted + deduplicated. *)

  val repair_partition : space -> genome -> genome
  (** Make the genome a valid partition of its effective unit set (each
      fissioned original replaced by its parts): duplicates dropped,
      stale originals expanded, missing units appended as singletons,
      the fissioned set sorted by rank. Idempotent. *)

  val random_partition : Random.State.t -> int list -> int list list

  val crossover : Random.State.t -> genome -> genome -> genome
  (** Falkenauer-style group injection. May leave the result in need of
      {!repair_partition} when the parents' fission states differ; the
      fissioned set is the parents' two lists appended. *)

  val mutate : Random.State.t -> space -> genome -> genome

  type score = { fitness : float; raw_objective : float; violations : int }

  val evaluate : params -> space -> verdicts -> genome -> score * genome * int
  (** [score, repaired genome, fission events], reading and extending
      the verdict table. A pure function of the (canonical) genome: the
      table only saves work. The returned genome is a fixpoint. *)

  val solution : space -> score -> genome -> solution  (** names a score's repaired genome *)
end
