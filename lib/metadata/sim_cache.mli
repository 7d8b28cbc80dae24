(** Content-addressed simulation cache: a content store, a launch memo
    over it, and whole-program entries.

    {b Content store.} Array contents are interned: an id names exactly
    one content (length and cells, compared bit for bit through
    [Int64.bits_of_float], so [-0.0] and [0.0] differ and a NaN equals
    itself). A full hash only picks candidates; a bitwise comparison
    decides, so two ids are equal if and only if the contents are.
    Seeded initial contents are named by (seed, array name, length) and
    never hashed; each pattern is computed once, straight into the
    store. Every content's cells live in large slabs.

    {b Run memories.} A cached run's memory holds no arena: every array
    is the cells of its content in the store, shared
    ({!Kft_sim.Memory.of_shared}). A launch copies only the arrays it
    may write ({!Kft_sim.Interp.launch}), so no launch ever writes the
    store. After it, a written array's copy is interned: a new content
    keeps the copy's cells as they are, an existing one takes its place
    and the copy's cells go back to the slab, and an array copied but
    not written goes back to its content without hashing.

    {b Launch memo.} A launch's stats and writes are a function of its
    kernel's parameters and body (not its name), its shape, its scalar
    arguments (doubles by their bits), and per array argument its
    content id and which earlier arguments are bound to the same host
    array. The shape is [l_domain] and [l_block], or only the thread
    box [ceil(l_domain / l_block) * l_block] when
    {!Kft_analysis.Absint.block_invariant} proves the launch's meaning
    a function of that box (no shared memory or barrier, builtins only
    as global coordinates, an x-width that is a multiple of 32, race
    freedom without the same-site exemption). A launch that block
    tuning moved to another block of the same box, or whose domain
    rounds up to the same box, then replays the entry: every stats
    field but [blocks_launched] is equal, and a hit recomputes that one
    from the launch's own grid. An entry holds the stats and, per
    written argument, the id of its final contents; a hit switches the
    written arrays to those contents, copying nothing. A launch that
    raises is not stored. An argument the launch never read and changed
    in every cell cannot have influenced it: its id is blanked in the
    stored key.

    {b Program entries.} Each distinct (program, seed, device) runs at
    most once per cache; its entry holds the profiles and every array's
    final content id, and a hit builds the memory over the store
    without copying. A missed program runs launch by launch through the
    memo, so a program that differs from a cached one in a few launches
    only simulates those. A cached run ignores [?layout]: it holds no
    arena to place.

    {b Lifetime.} The caller owns a cache, and nothing evicts from it:
    it lives as long as the value does. There is no process-wide cache.
    [Framework.transform] creates a fresh one per transform unless its
    caller passes one to share (a programmer-guided re-run, a bench
    sweep). The cache is never persisted, so its keys carry no
    representation tag.

    Everything a hit returns is bit-identical to a fresh simulation and
    private to the caller: its profiles are copies, and its memory's
    {!Kft_sim.Memory.get} copies an array, into a buffer of its own and
    not into the store's slabs, before the caller may write it. The
    execution path is not part of any key: both paths are
    bit-identical. *)

type t

val create : unit -> t

val stats : t -> Kft_engine.Engine.Cache.stats
(** Program-level hit/miss/size counters (the stage report's profile
    cache line). *)

type memo_stats = {
  launch_hits : int;
  launch_misses : int;
  contents : int;  (** distinct contents with an id *)
  stored_cells : int;  (** cells the store keeps for its contents *)
  hashed_cells : int;  (** cells hashed to intern a content *)
  intern_s : float;  (** wall time spent interning (hash, compare, copy) *)
}

val memo_stats : t -> memo_stats
(** Cumulative launch-memo and content-store counters. *)

val profile :
  t -> ?engine:Kft_engine.Engine.t -> ?backend:Kft_sim.Interp.backend ->
  ?trace:Kft_trace.Trace.t -> ?layout:Kft_sim.Memory.layout -> seed:int ->
  Kft_device.Device.t -> Kft_cuda.Ast.program -> Kft_sim.Profiler.run
(** {!Kft_sim.Profiler.profile} through the cache. Records
    [sim_cache_hits] / [sim_cache_misses] and, per launch of a missed
    program, [launch_memo_hits] / [launch_memo_misses] on the open span
    (canonical channel), and the cells hashed and interning time as
    notes (side channel). A replayed launch still records its
    [launch:<kernel>] span ({!Kft_sim.Interp.record_replay}). [layout]
    is ignored (see {e Program entries}). *)

val final_ids :
  t -> ?layout:Kft_sim.Memory.layout -> seed:int -> Kft_device.Device.t ->
  Kft_cuda.Ast.program -> (string * int) list option
(** The final content id of every array of a cached program run, [None]
    when the run is not cached. Ids from one cache compare equal exactly
    when the contents are bitwise equal. *)

(** Test hooks. *)
module Internal : sig
  val slab_used : t -> int
  (** Cells the store's current slab has handed out. *)

  val check_store : t -> string list
  (** Store integrity: every stored content still hashes to the value it
      was interned under, and every seeded content still equals
      {!Kft_sim.Memory.seeded_cell}. One line per violation; [[]] when
      the store is intact. A write that leaked into a store buffer shows
      here. *)
end
