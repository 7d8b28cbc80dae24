(** Device global memory for the GPU simulator.

    Arrays are flat float64 {!Bigarray.Array1} views into one
    contiguous off-heap arena per memory, addressed by the linearized
    index the kernels compute; dimensions are kept for reporting and
    halo checks. Only double-precision arrays are supported — the
    evaluation of the paper is entirely double precision
    (Section 6.1.2).

    The off-heap representation buys two things with zero behavioural
    change (float64 Bigarray cells are the same IEEE-754 doubles as
    [float array] cells): the GC never scans grid payloads, and a blit
    is a memcpy. Every memory gets a fresh arena of exactly its cells;
    a released one goes back to the GC. Nothing recycles arenas: a
    transform creates only three or four memories, and keeping released
    arenas for reuse only raised peak memory (DESIGN.md 3i). *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Backing store of one array: a zero-copy sub-view of the memory's
    arena. Element [i] is read as [b.{i}] (or [Array1.unsafe_get] on
    proved paths). *)

val alloc_buf : int -> buf
(** A fresh, uninitialized buffer of [n] cells. *)

type t

exception Unknown_array of string
(** Raised by {!get} / {!dims} for an array name this memory does not
    hold. Carries the offending name; the interpreter re-wraps it in
    [Interp.Sim_error] together with the launching kernel. *)

type layout = {
  l_offsets : (string * int) list;  (** array name -> cell offset *)
  l_total : int;  (** arena cells; <= packed total when slots are shared *)
  l_seed_order : string list;
      (** seeding order; arrays whose initial values must survive on a
          shared slot come last *)
}
(** A liveness-driven overlay placement (Kft_schedflow.Schedflow
    [arena_layout]): arrays whose live ranges never need both values at
    once may share arena cells. Sound only for runs whose final memory
    is discarded — the overlay preserves every value any read observes
    during the schedule, not the end-of-run contents of shared slots. *)

val create : ?layout:layout -> Kft_cuda.Ast.array_decl list -> t
(** Allocate every array, zero-initialized, in one fresh arena of
    exactly the cells it needs — packed in sorted name order by
    default, or placed by [layout].
    Raises [Invalid_argument] on duplicate names, non-double element
    types, or a layout that misses an array / overflows its arena. *)

val init_seeded : t -> seed:int -> unit
(** Fill every array with a deterministic pseudo-random pattern derived
    from [seed] and the array name, so that identical programs started
    from the same seed are bit-comparable. Arrays are filled in the
    memory's seeding order (name order by default, [l_seed_order] under
    an overlay layout, where later arrays win on shared cells). *)

val seeded_cell : seed:int -> string -> int -> float
(** [seeded_cell ~seed name i] is the value {!init_seeded} writes into
    cell [i] of array [name] when no other array shares its cells: a
    pure function of [seed], [name] and [i]. *)

val fill_seeded : seed:int -> string -> buf -> unit
(** Write the seeded pattern of array [name] into a buffer, cell by
    cell as {!seeded_cell} gives it. *)

val get : t -> string -> buf
(** The backing store of an array — an aliasing view, not a copy.
    Raises {!Unknown_array}. *)

val get_array : t -> string -> float array
(** A heap copy of an array's contents, for callers that want plain
    [float array] access (tests, reporting). Raises {!Unknown_array}. *)

val dims : t -> string -> int list
(** Raises {!Unknown_array}. *)

val mem : t -> string -> bool

val names : t -> string list

val placement : t -> (string * int * int) list
(** [(name, offset, cells)] of every array in seeding order. Two arrays
    share storage exactly when their cell ranges intersect; that only
    happens under an overlay {!layout}. *)

val release : t -> unit
(** Mark the memory dead and subtract its cells from the live count of
    {!Arenas}; freeing the arena is left to the GC, which can do so
    once the caller drops the views it took with {!get}. The memory
    must not be used afterwards ({!get} raises [Invalid_argument]);
    releasing twice raises [Invalid_argument]. Releasing is optional:
    an unreleased memory is reclaimed by the GC all the same, but its
    cells stay in the live count. *)

val array_max_abs_diff : t -> t -> string -> float
(** The maximum absolute elementwise difference of one array between two
    memories; [infinity] when the array is missing on one side or has a
    different length, or when a cell is NaN on one side and not bitwise
    the same NaN on the other. *)

val max_abs_diff : t -> t -> (string * float) list
(** For every array name present in {e either} memory, the maximum
    absolute elementwise difference. An array missing on one side — or
    present with a different length — is reported as [infinity] rather
    than silently dropped. Sorted by name. *)

val equal_bufs : buf -> buf -> bool
(** Same length and every cell equal by [Int64.bits_of_float]: [-0.0]
    and [0.0] differ, a NaN equals itself (with the same payload). *)

val bits_equal : t -> t -> bool
(** Bit identity of two memories: the same array names, and every array
    {!equal_bufs}. *)

(** Allocation accounting: how many arenas {!create} allocated, and how
    many cells were live at once. Global and mutex-guarded. *)
module Arenas : sig
  type stats = {
    requests : int;  (** arenas allocated, one per {!create} *)
    cells_requested : int;  (** total cells across all requests *)
    high_water : int;
        (** peak live cells: created and not yet {!release}d *)
  }

  val stats : unit -> stats
end
