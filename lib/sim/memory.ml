open Kft_cuda.Ast

module A1 = Bigarray.Array1

(* Off-heap storage: the GC never scans a Bigarray's payload, so
   multi-hundred-KB grids cost nothing per minor collection, and
   [A1.blit] over float64 is a straight memcpy. float64 Bigarray cells
   and [float array] cells are the same IEEE-754 doubles, so swapping
   the representation cannot perturb a single bit of any result. *)
type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let alloc_buf n : buf = A1.create Bigarray.Float64 Bigarray.C_layout n

type entry = { data : buf; edims : int list }

(* One contiguous arena per memory; every entry is a zero-copy
   [A1.sub] view into it, laid out in sorted name order. [directory] rows are
   (name, dims, offset); a row's length is the product of its dims, so
   an overlay layout may alias rows onto shared cells. The views are the
   only references to the arena, so once [release] drops them the GC
   frees it even while the dead memory record is still reachable. *)
type t = {
  total : int;  (** arena cells *)
  directory : (string * int list * int) array;
  tbl : (string, entry) Hashtbl.t;
  seed_order : string list;
      (** [init_seeded] fills arrays in this order; under an overlay
          layout later names win on shared cells *)
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

let dims_cells dims = List.fold_left ( * ) 1 dims

let create ?layout decls =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.a_name then
        invalid_arg ("Memory.create: duplicate array " ^ d.a_name);
      if d.a_elem_ty <> Double then
        invalid_arg ("Memory.create: only double arrays are supported: " ^ d.a_name);
      Hashtbl.replace seen d.a_name ())
    decls;
  let sorted = List.sort (fun a b -> compare a.a_name b.a_name) decls in
  let directory, total, seed_order =
    match layout with
    | None ->
        let off = ref 0 in
        let rows =
          List.map
            (fun d ->
              let row = (d.a_name, d.a_dims, !off) in
              off := !off + array_cells d;
              row)
            sorted
        in
        (Array.of_list rows, !off, List.map (fun d -> d.a_name) sorted)
    | Some l ->
        let rows =
          List.map
            (fun d ->
              match List.assoc_opt d.a_name l.l_offsets with
              | None -> invalid_arg ("Memory.create: layout misses array " ^ d.a_name)
              | Some off ->
                  if off < 0 || off + array_cells d > l.l_total then
                    invalid_arg ("Memory.create: layout overflows arena at " ^ d.a_name);
                  (d.a_name, d.a_dims, off))
            sorted
        in
        List.iter
          (fun d ->
            if not (List.exists (fun n -> n = d.a_name) l.l_seed_order) then
              invalid_arg ("Memory.create: layout seed order misses " ^ d.a_name))
          sorted;
        (Array.of_list rows, l.l_total, l.l_seed_order)
  in
  Arenas.acquire total;
  let arena = alloc_buf total in
  (* [A1.create] does not zero memory: restore the zero-initialized
     contract *)
  A1.fill arena 0.0;
  let tbl = Hashtbl.create (max 32 (Array.length directory)) in
  Array.iter
    (fun (name, edims, off) ->
      Hashtbl.replace tbl name { data = A1.sub arena off (dims_cells edims); edims })
    directory;
  { total; directory; tbl; seed_order; released = false }

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

let init_seeded t ~seed =
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tbl name with
      | None -> ()
      | Some e -> fill_seeded ~seed name e.data)
    t.seed_order

let find t name =
  if t.released then invalid_arg ("Memory.find: use after release: " ^ name);
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None -> raise (Unknown_array name)

let get t name = (find t name).data

let get_array t name =
  let b = (find t name).data in
  Array.init (A1.dim b) (fun i -> A1.unsafe_get b i)

let dims t name = (find t name).edims

let mem t name = Hashtbl.mem t.tbl name

let names t = Array.to_list (Array.map (fun (n, _, _) -> n) t.directory)

let placement t =
  let row = Hashtbl.create (Array.length t.directory) in
  Array.iter (fun (n, d, off) -> Hashtbl.replace row n (n, off, dims_cells d)) t.directory;
  List.filter_map (Hashtbl.find_opt row) t.seed_order

let release t =
  if t.released then invalid_arg "Memory.release: memory already released";
  t.released <- true;
  Hashtbl.reset t.tbl;
  Arenas.release t.total

let array_max_abs_diff a b n =
  if not (mem a n && mem b n) then infinity
  else
    let da = get a n and db = get b n in
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
  names a = names b && List.for_all (fun n -> equal_bufs (get a n) (get b n)) (names a)
