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
    is a memcpy. A memory from {!create} gets a fresh arena of exactly
    its cells; a released one goes back to the GC. A memory from
    {!of_shared} holds no arena: its arrays start as buffers shared
    with others (the contents of the simulation cache's store), and
    {!get} copies an array's cells the first time it is asked for a
    writable buffer (copy-on-write, DESIGN.md 3i). *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Backing store of one array: a zero-copy sub-view of the memory's
    arena, a private copy, or a shared buffer. Element [i] is read as
    [b.{i}] (or [Array1.unsafe_get] on proved paths). *)

val alloc_buf : int -> buf
(** A fresh, uninitialized buffer of [n] cells. *)

type t

exception Unknown_array of string
(** Raised by {!get} / {!read} / {!dims} for an array name this memory does not
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
    during the schedule, not the end-of-run contents of shared slots.
    Only {!create} places arrays by it: the simulation cache's runs
    ({!of_shared}) hold no arena and ignore it. *)

val create : ?layout:layout -> Kft_cuda.Ast.array_decl list -> t
(** Allocate every array, zero-initialized, in one fresh arena of
    exactly the cells it needs — packed in sorted name order by
    default, or placed by [layout]. Every array is private.
    Raises [Invalid_argument] on duplicate names, non-double element
    types, or a layout that misses an array / overflows its arena. *)

val of_shared : alloc:(int -> buf) -> (Kft_cuda.Ast.array_decl * buf) list -> t
(** A memory whose arrays are the given buffers, shared: nothing is
    copied or allocated until {!get} asks for a writable array, which
    then copies it into [alloc n] (a buffer of [n] cells). The buffers
    are never written through this memory. Raises [Invalid_argument]
    on duplicate names, non-double element types, or a buffer whose
    length is not its array's cells. *)

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
(** The writable backing store of an array — an aliasing view, not a
    copy. On a shared array the first call copies its cells into a
    buffer from the memory's allocator, once, and the array is private
    from then on. Raises {!Unknown_array}. *)

val read : t -> string -> buf
(** The backing store of an array without copying it: the caller must
    not write it (the buffer may be shared). Raises {!Unknown_array}. *)

val is_shared : t -> string -> bool
(** The array is a shared buffer ({!of_shared}, {!set_shared}), not
    yet copied by {!get}. Raises {!Unknown_array}. *)

val set_shared : t -> string -> buf -> unit
(** Make an array the given buffer, shared: the memory drops its
    private copy, if any (the caller may keep the buffer {!get} gave,
    say to hand it to others as shared). Raises {!Unknown_array}, and
    [Invalid_argument] on a buffer of another length. *)

val get_array : t -> string -> float array
(** A heap copy of an array's contents, for callers that want plain
    [float array] access (tests, reporting). Raises {!Unknown_array}. *)

val dims : t -> string -> int list
(** Raises {!Unknown_array}. *)

val mem : t -> string -> bool

val names : t -> string list

val release : t -> unit
(** Mark the memory dead and subtract its arena and private copies from
    the live count of {!Arenas}; freeing them is left to the GC, which
    can do so once the caller drops the views it took with {!get}. The memory
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

(** Allocation accounting: how many arenas {!create} allocated plus
    how many private copies {!get} made, and how many of their cells
    were live at once. Global and mutex-guarded. *)
module Arenas : sig
  type stats = {
    requests : int;  (** one per {!create} and one per copy {!get} makes *)
    cells_requested : int;  (** total cells across all requests *)
    high_water : int;
        (** peak live cells: allocated and not yet {!release}d (a copy
            also leaves the count at {!set_shared}) *)
  }

  val stats : unit -> stats
end
