open Kft_cuda.Ast

module A1 = Bigarray.Array1

(* Off-heap storage: the GC never scans a Bigarray's payload, so
   multi-hundred-KB grids cost nothing per minor collection, and
   [A1.blit] over float64 is a straight memcpy. float64 Bigarray cells
   and [float array] cells are the same IEEE-754 doubles, so swapping
   the representation cannot perturb a single bit of any result. *)
type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let alloc_buf n : buf = A1.create Bigarray.Float64 Bigarray.C_layout n

(* An entry's buffer is a view into the memory's arena, a private copy
   [get] made, or shared with others (a content of the simulation
   cache's store, say). A shared buffer is never written through this
   memory: [get] first copies it into a buffer from the memory's
   allocator. *)
type owner = Arena | Copy | Shared

type entry = { mutable data : buf; edims : int list; mutable owner : owner }

(* A memory from [create] holds one contiguous arena; every entry is a
   zero-copy [A1.sub] view into it, laid out in sorted name order (or
   placed by an overlay layout, which may alias entries onto shared
   cells). The views are the only references to the arena, so once
   [release] drops them the GC frees it even while the dead memory
   record is still reachable. A memory from [of_shared] holds no arena:
   its entries start shared and are copied one by one, on first [get]. *)
type t = {
  names : string list;  (** sorted *)
  tbl : (string, entry) Hashtbl.t;
  seed_order : string list;
      (** [init_seeded] fills arrays in this order; under an overlay
          layout later names win on shared cells *)
  alloc : int -> buf;  (** where [get] copies a shared entry *)
  mutable live : int;  (** cells this memory holds on the {!Arenas} live count *)
  mutable released : bool;
}

(* A liveness-driven overlay: entries whose live ranges never require
   both values at once may share arena cells, so [l_total] can be
   smaller than the packed sum of extents. Produced by
   Kft_schedflow.Schedflow.arena_layout; only sound for runs whose
   final memory is discarded (the overlay preserves every value any
   read observes, not the end-of-run contents of shared slots). *)
type layout = {
  l_offsets : (string * int) list;  (** array name -> cell offset *)
  l_total : int;  (** arena cells; <= packed total when slots are shared *)
  l_seed_order : string list;
      (** seeding order; arrays whose initial values must survive on a
          shared slot come last *)
}

exception Unknown_array of string

(* ------------------------------------------------------------------ *)
(* Allocation accounting                                               *)
(* ------------------------------------------------------------------ *)

module Arenas = struct
  type stats = { requests : int; cells_requested : int; high_water : int }

  let m = Mutex.create ()
  let requests = ref 0
  let cells_requested = ref 0
  let live = ref 0
  let high_water = ref 0

  let stats () =
    Mutex.protect m (fun () ->
        { requests = !requests; cells_requested = !cells_requested; high_water = !high_water })

  let acquire n =
    Mutex.protect m (fun () ->
        incr requests;
        cells_requested := !cells_requested + n;
        live := !live + n;
        if !live > !high_water then high_water := !live)

  let release n = Mutex.protect m (fun () -> live := !live - n)
end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let check_decls what decls =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.a_name then invalid_arg (what ^ ": duplicate array " ^ d.a_name);
      if d.a_elem_ty <> Double then
        invalid_arg (what ^ ": only double arrays are supported: " ^ d.a_name);
      Hashtbl.replace seen d.a_name ())
    decls;
  List.sort (fun a b -> compare a.a_name b.a_name) decls

let create ?layout decls =
  let sorted = check_decls "Memory.create" decls in
  let rows, total, seed_order =
    match layout with
    | None ->
        let off = ref 0 in
        let rows =
          List.map
            (fun d ->
              let row = (d, !off) in
              off := !off + array_cells d;
              row)
            sorted
        in
        (rows, !off, List.map (fun d -> d.a_name) sorted)
    | Some l ->
        let rows =
          List.map
            (fun d ->
              match List.assoc_opt d.a_name l.l_offsets with
              | None -> invalid_arg ("Memory.create: layout misses array " ^ d.a_name)
              | Some off ->
                  if off < 0 || off + array_cells d > l.l_total then
                    invalid_arg ("Memory.create: layout overflows arena at " ^ d.a_name);
                  (d, off))
            sorted
        in
        List.iter
          (fun d ->
            if not (List.exists (fun n -> n = d.a_name) l.l_seed_order) then
              invalid_arg ("Memory.create: layout seed order misses " ^ d.a_name))
          sorted;
        (rows, l.l_total, l.l_seed_order)
  in
  Arenas.acquire total;
  let arena = alloc_buf total in
  (* [A1.create] does not zero memory: restore the zero-initialized
     contract *)
  A1.fill arena 0.0;
  let tbl = Hashtbl.create (max 32 (List.length rows)) in
  List.iter
    (fun (d, off) ->
      Hashtbl.replace tbl d.a_name
        { data = A1.sub arena off (array_cells d); edims = d.a_dims; owner = Arena })
    rows;
  let names = List.map (fun d -> d.a_name) sorted in
  { names; tbl; seed_order; alloc = alloc_buf; live = total; released = false }

let of_shared ~alloc arrays =
  let sorted = check_decls "Memory.of_shared" (List.map fst arrays) in
  let tbl = Hashtbl.create (max 32 (List.length arrays)) in
  List.iter
    (fun (d, data) ->
      if A1.dim data <> array_cells d then
        invalid_arg ("Memory.of_shared: buffer length differs from the cells of " ^ d.a_name);
      Hashtbl.replace tbl d.a_name { data; edims = d.a_dims; owner = Shared })
    arrays;
  let names = List.map (fun d -> d.a_name) sorted in
  { names; tbl; seed_order = names; alloc; live = 0; released = false }

(* splitmix64-style hash, kept in int range *)
let mix h =
  let h = h * 0x9E3779B1 land max_int in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85EBCA77 land max_int in
  h lxor (h lsr 13)

(* cell [i] of the seeded pattern is a pure function of [seed], the
   array name and [i]: values in (-1, 1), never exactly 0 to catch
   masking bugs *)
let seed_base ~seed name = seed + (Hashtbl.hash name * 31)

let[@inline] seeded_value base i =
  let h = mix (base + (i * 2654435761)) in
  (float_of_int (h land 0xFFFFF) +. 1.0)
  /. 1048577.0
  *. (if h land 0x100000 = 0 then 1.0 else -1.0)

let seeded_cell ~seed name =
  let base = seed_base ~seed name in
  fun i -> seeded_value base i

let fill_seeded ~seed name (b : buf) =
  let base = seed_base ~seed name in
  for i = 0 to A1.dim b - 1 do
    A1.unsafe_set b i (seeded_value base i)
  done

let find t name =
  if t.released then invalid_arg ("Memory.find: use after release: " ^ name);
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None -> raise (Unknown_array name)

let mem t name = Hashtbl.mem t.tbl name

let read t name = (find t name).data

let get t name =
  let e = find t name in
  if e.owner = Shared then begin
    let n = A1.dim e.data in
    let copy = t.alloc n in
    A1.blit e.data copy;
    Arenas.acquire n;
    t.live <- t.live + n;
    e.data <- copy;
    e.owner <- Copy
  end;
  e.data

let is_shared t name = (find t name).owner = Shared

let set_shared t name data =
  let e = find t name in
  if A1.dim data <> A1.dim e.data then
    invalid_arg ("Memory.set_shared: buffer length differs from the cells of " ^ name);
  if e.owner = Copy then begin
    Arenas.release (A1.dim e.data);
    t.live <- t.live - A1.dim e.data
  end;
  e.data <- data;
  e.owner <- Shared

let init_seeded t ~seed =
  List.iter (fun name -> if mem t name then fill_seeded ~seed name (get t name)) t.seed_order

let get_array t name =
  let b = read t name in
  Array.init (A1.dim b) (fun i -> A1.unsafe_get b i)

let dims t name = (find t name).edims

let names t = t.names

let release t =
  if t.released then invalid_arg "Memory.release: memory already released";
  t.released <- true;
  Hashtbl.reset t.tbl;
  Arenas.release t.live

let array_max_abs_diff a b n =
  if not (mem a n && mem b n) then infinity
  else
    let da = read a n and db = read b n in
    if A1.dim da <> A1.dim db then infinity
    else begin
      let m = ref 0.0 in
      for i = 0 to A1.dim da - 1 do
        let x = A1.unsafe_get da i and y = A1.unsafe_get db i in
        let d = Float.abs (x -. y) in
        if d > !m then m := d
          (* a NaN difference fails every [d > m]: a NaN against a number
             (or another NaN) must not pass as equal *)
        else if Float.is_nan d && Int64.bits_of_float x <> Int64.bits_of_float y then
          m := infinity
      done;
      !m
    end

let max_abs_diff a b =
  List.sort_uniq compare (names a @ names b) |> List.map (fun n -> (n, array_max_abs_diff a b n))

(* cells compare by their bits: float equality would equate -0.0 with
   0.0 and tell a NaN from itself *)
let equal_bufs (a : buf) (b : buf) =
  let n = A1.dim a in
  let rec go i =
    i >= n
    || Int64.bits_of_float (A1.unsafe_get a i) = Int64.bits_of_float (A1.unsafe_get b i)
       && go (i + 1)
  in
  n = A1.dim b && go 0

let bits_equal a b =
  names a = names b && List.for_all (fun n -> equal_bufs (read a n) (read b n)) (names a)
