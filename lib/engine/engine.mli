(** Parallel, memoized evaluation engine for the GGA search.

    The paper runs its search as "500 generations x 100 individuals on 8
    Xeon cores (~11 minutes)"; this module supplies the two mechanisms
    that make that budget tractable here: a fixed-size pool of OCaml 5
    domains for evaluating a generation's population in parallel, and a
    string-keyed memo cache so identical genomes (which a converging GA
    produces in bulk) are never re-evaluated.

    {b Determinism contract.} [Pool.map] reduces results in submission
    index order and never runs caller code concurrently with the
    submitting (coordinator) domain's own bookkeeping; as long as the
    mapped function is a pure function of its input, the list returned is
    bit-identical at any worker count. All random-number generation stays
    confined to the coordinator domain. The cache is transparent for pure
    functions: enabling or disabling it cannot change any returned value,
    only how often the function runs.

    Implemented on the stdlib only ([Domain] / [Mutex] / [Condition]) —
    no [domainslib] dependency (see DESIGN.md 3d). *)

module Pool : sig
  (** A fixed-size domain pool. [jobs <= 1] means "no worker domains":
      work runs inline in the caller, which is the reference sequential
      behaviour the parallel path must reproduce bit-for-bit. *)

  type t

  type stats = {
    st_jobs : int;
    st_workers : int;
    st_batches : int;  (** {!map} calls submitted over the pool's lifetime *)
    st_items : int;  (** total items across those batches *)
    st_max_queue : int;  (** deepest queue observed at submission *)
    st_steals : int;
        (** always reads 0: the workers share one queue, so nothing is
            stolen. It stays for the pipeline benchmark, which still
            reads it. *)
    st_worker_tasks : int list;
        (** tasks executed per worker, in worker index order (slot 0 also
            counts the inline sequential path). The split across workers
            is scheduling-dependent — trace side-channel data only. *)
  }

  val create : jobs:int -> t
  (** [jobs] is the evaluation width: with [jobs > 1], worker domains
      are spawned lazily on the first parallel {!map} (the coordinator
      blocks during {!map}); [jobs <= 1] never spawns and {!map}
      degenerates to [List.map]. Lazy spawning matters because even an
      idle domain taxes the whole process — every minor GC is a
      stop-the-world rendezvous across all domains — so a pool whose
      clients always take their serial fallback costs nothing. The
      number of domains spawned is capped at
      [Domain.recommended_domain_count ()] — oversubscribing cores only
      adds GC coordination, and the determinism contract makes the cap
      observationally invisible. {!jobs} always reports the requested
      width. *)

  val jobs : t -> int

  val workers : t -> int
  (** Domains the pool will use: [min jobs (recommended_domain_count)]
      (spawned on first parallel {!map}). Lets callers scale
      work-splitting to real parallelism instead of the requested
      width. *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Deterministic parallel map: contiguous chunks of the input go onto
      one FIFO queue that every worker takes from. Which domain runs a
      chunk varies from run to run, but results are reduced in
      submission index order, so the returned list is bit-identical at
      any [jobs] setting. If one or more applications raise, every task
      still runs to completion (the pool stays reusable) and the
      exception of the {e lowest submission index} is re-raised in the
      caller. Raises [Invalid_argument] after {!shutdown}. *)

  val shutdown : t -> unit
  (** Join all worker domains. Idempotent. *)

  val stats : t -> stats
  (** Instrumentation snapshot: per-worker job counts, queue depth and
      submission-order batch totals. Call between batches (the counters
      are updated by the coordinator and by workers mid-batch). *)
end

module Cache : sig
  (** String-keyed memo cache with hit/miss/size counters. *)

  type 'a t

  type stats = { hits : int; misses : int; size : int }

  val create : unit -> 'a t

  val find : 'a t -> string -> 'a option
  (** Lookup, counting a hit or a miss. *)

  val peek : 'a t -> string -> 'a option
  (** Lookup without touching the counters. *)

  val add : 'a t -> string -> 'a -> unit
  (** Insert (first insertion wins: re-adding an existing key is a
      no-op, so concurrent duplicate computations cannot flip a cached
      value). *)

  val stats : 'a t -> stats
end

type t
(** A pool plus the memoization policy: what [Gga.run ?engine] consumes. *)

val create : ?jobs:int -> ?memo:bool -> unit -> t
(** [jobs] defaults to [1] (sequential), [memo] to [true]. *)

val jobs : t -> int
val workers : t -> int
val memo_enabled : t -> bool

val pool_stats : t -> Pool.stats
(** {!Pool.stats} of the engine's pool. Execution-shape data (varies
    with [--jobs]); consumers put it in the trace's side channel. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!Pool.map} on the engine's pool. *)

val shutdown : t -> unit

val with_engine : ?jobs:int -> ?memo:bool -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]); used for the engine's
    wall-time stats so they never perturb deterministic results. *)
