open Kft_cuda.Ast
module A1 = Bigarray.Array1
module Memory = Kft_sim.Memory
module Interp = Kft_sim.Interp
module Profiler = Kft_sim.Profiler
module Trace = Kft_trace.Trace
module Cache = Kft_engine.Engine.Cache

(* ------------------------------------------------------------------ *)
(* Content store                                                       *)
(* ------------------------------------------------------------------ *)

(* An id names exactly one array content (a length and its cells, bit
   for bit). Seeded contents are named by (seed, name, length) and never
   hashed: their cells are a pure function of those three
   ([Memory.seeded_cell]). The first time one is written into a memory
   its cells are kept, so later memories copy them instead of
   recomputing the pattern. Every other content is copied into a slab
   when it is interned. *)
type content =
  | Seeded of { seed : int; name : string; len : int; mutable kept : Memory.buf option }
  | Stored of Memory.buf

type store = {
  mutable contents : content array;  (** id -> content; the first [count] are used *)
  mutable count : int;
  by_hash : (int, int) Hashtbl.t;  (** full hash -> stored ids *)
  by_head : (int * int64, int) Hashtbl.t;  (** (length, first cell's bits) -> stored ids *)
  seeded_by_len : (int, int) Hashtbl.t;  (** length -> seeded ids *)
  seeded_names : (int * string * int, int) Hashtbl.t;  (** (seed, name, length) -> id *)
  mutable slab : Memory.buf;
  mutable slab_used : int;
  mutable stored_cells : int;
  mutable hashed_cells : int;
  mutable intern_s : float;
}

let create_store () =
  {
    contents = [||];
    count = 0;
    by_hash = Hashtbl.create 64;
    by_head = Hashtbl.create 64;
    seeded_by_len = Hashtbl.create 16;
    seeded_names = Hashtbl.create 64;
    slab = Memory.alloc_buf 0;
    slab_used = 0;
    stored_cells = 0;
    hashed_cells = 0;
    intern_s = 0.0;
  }

(* Contents compare by the bits of their cells: float equality (and
   polymorphic compare) would equate -0.0 with 0.0 and tell a NaN from
   itself. *)
let[@inline] bits x = Int64.bits_of_float x

let hash_buf (b : Memory.buf) =
  let h = ref (A1.dim b) in
  for i = 0 to A1.dim b - 1 do
    let x = bits (A1.unsafe_get b i) in
    h := (!h lxor Int64.to_int x lxor Int64.to_int (Int64.shift_right_logical x 32)) * 0x100000001b3
  done;
  !h

(* a content as a length and a cell reader, for the rare comparisons
   that involve a seeded content *)
let cells_of = function
  | Seeded { kept = Some b; _ } | Stored b -> (A1.dim b, fun i -> A1.unsafe_get b i)
  | Seeded s -> (s.len, Memory.seeded_cell ~seed:s.seed s.name)

let head (n, cell) = if n = 0 then 0L else bits (cell 0)

let equal_cells (n, f) (m, g) =
  let rec go i = i >= n || (bits (f i) = bits (g i) && go (i + 1)) in
  n = m && go 0

let add_content st c =
  if st.count = Array.length st.contents then begin
    let grown = Array.make (max 64 (2 * st.count)) c in
    Array.blit st.contents 0 grown 0 st.count;
    st.contents <- grown
  end;
  st.contents.(st.count) <- c;
  st.count <- st.count + 1;
  st.count - 1

(* stored contents are sub-views of large slabs, never one Bigarray
   each: every Bigarray allocation is a custom block the GC accounts
   for, and per-array ones cost more in GC work than the copies
   themselves. Slabs double from 64 Kcells up to 4 Mcells (32 MB); a
   content larger than the next slab gets a slab of its own size. *)
let slab_min = 1 lsl 16

let slab_max = 1 lsl 22

let copy_to_slab st (b : Memory.buf) =
  let n = A1.dim b in
  if st.slab_used + n > A1.dim st.slab then begin
    st.slab <- Memory.alloc_buf (max n (min slab_max (max slab_min (2 * A1.dim st.slab))));
    st.slab_used <- 0
  end;
  let v = A1.sub st.slab st.slab_used n in
  st.slab_used <- st.slab_used + n;
  st.stored_cells <- st.stored_cells + n;
  A1.blit b v;
  v

(* The id of a content: a full hash picks the stored candidates and a
   bitwise comparison decides; a seeded content of the same length is
   a candidate when its first cell matches. A new content is copied
   into the slab. *)
let intern st (b : Memory.buf) =
  let t0 = Kft_engine.Engine.now () in
  let n = A1.dim b in
  st.hashed_cells <- st.hashed_cells + n;
  let h = hash_buf b in
  let is_b id =
    match st.contents.(id) with
    | Stored s | Seeded { kept = Some s; _ } -> Memory.equal_bufs s b
    | Seeded _ as c -> equal_cells (cells_of c) (cells_of (Stored b))
  in
  let id =
    match List.find_opt is_b (Hashtbl.find_all st.by_hash h) with
    | Some id -> id
    | None -> (
        let hd = head (cells_of (Stored b)) in
        let seeded_match id = head (cells_of st.contents.(id)) = hd && is_b id in
        match List.find_opt seeded_match (Hashtbl.find_all st.seeded_by_len n) with
        | Some id -> id
        | None ->
            let id = add_content st (Stored (copy_to_slab st b)) in
            Hashtbl.add st.by_hash h id;
            Hashtbl.add st.by_head (n, hd) id;
            id)
  in
  st.intern_s <- st.intern_s +. (Kft_engine.Engine.now () -. t0);
  id

(* The id of array [name]'s seeded pattern of [len] cells, found
   without hashing: only contents of the same length whose first cell
   matches are compared in full. *)
let seeded st ~seed name len =
  match Hashtbl.find_opt st.seeded_names (seed, name, len) with
  | Some id -> id
  | None ->
      let c = Seeded { seed; name; len; kept = None } in
      let cells = cells_of c in
      let hd = head cells in
      let same id =
        let other = cells_of st.contents.(id) in
        head other = hd && equal_cells cells other
      in
      let id =
        match
          List.find_opt same
            (Hashtbl.find_all st.seeded_by_len len @ Hashtbl.find_all st.by_head (len, hd))
        with
        | Some id -> id
        | None ->
            let id = add_content st c in
            Hashtbl.add st.seeded_by_len len id;
            id
      in
      Hashtbl.replace st.seeded_names (seed, name, len) id;
      id

let materialize st id (dst : Memory.buf) =
  match st.contents.(id) with
  | Stored b | Seeded { kept = Some b; _ } -> A1.blit b dst
  | Seeded s ->
      Memory.fill_seeded ~seed:s.seed s.name dst;
      s.kept <- Some (copy_to_slab st dst)

(* ------------------------------------------------------------------ *)
(* Content ids of one run's live memory                                *)
(* ------------------------------------------------------------------ *)

type live = {
  mem : Memory.t;
  ids : (string, int) Hashtbl.t;  (** arrays whose content id is known *)
  extent : (string, int * int) Hashtbl.t;  (** offset, cells *)
  sharers : (string, string) Hashtbl.t;  (** arrays sharing cells with an array (overlay only) *)
}

let overlap (o1, n1) (o2, n2) = o1 < o2 + n2 && o2 < o1 + n1

(* Seeds [mem] as [Memory.init_seeded] does, array by array in placement
   order, from the store's kept patterns. Initial ids cost nothing: an
   array holds its own seeded pattern unless a later array shares its
   cells. Those (overlay layouts only) start unknown and are interned
   when a launch key first needs them. *)
let live_create st mem ~seed =
  let placement = Memory.placement mem in
  let lv =
    {
      mem;
      ids = Hashtbl.create 64;
      extent = Hashtbl.create 64;
      sharers = Hashtbl.create 16;
    }
  in
  let rec go = function
    | [] -> ()
    | (name, off, cells) :: later ->
        let shared =
          List.filter (fun (_, o, c) -> overlap (off, cells) (o, c)) later
        in
        List.iter
          (fun (other, _, _) ->
            Hashtbl.add lv.sharers name other;
            Hashtbl.add lv.sharers other name)
          shared;
        let id = seeded st ~seed name cells in
        materialize st id (Memory.get mem name);
        if shared = [] then Hashtbl.replace lv.ids name id;
        Hashtbl.replace lv.extent name (off, cells);
        go later
  in
  go placement;
  lv

let id_of st lv name =
  match Hashtbl.find_opt lv.ids name with
  | Some id -> id
  | None ->
      let id = intern st (Memory.get lv.mem name) in
      Hashtbl.replace lv.ids name id;
      id

(* after a launch wrote [written] (host, new id): every array sharing
   cells with a written one changed too and is re-interned lazily *)
let set_written lv written =
  List.iter
    (fun (a, _) -> List.iter (Hashtbl.remove lv.ids) (Hashtbl.find_all lv.sharers a))
    written;
  List.iter (fun (a, id) -> Hashtbl.replace lv.ids a id) written

(* ------------------------------------------------------------------ *)
(* Launch memo                                                         *)
(* ------------------------------------------------------------------ *)

(* A launch's stats and writes are a function of its code, its shape,
   its scalar arguments, the contents of its array arguments and which
   of those arguments share storage: [Array_arg (id, sharing)] lists,
   for every earlier array argument whose cells intersect this one's,
   its position and the offset between the two (under a packed layout
   that is exactly "bound to the same host array", offset 0). *)
type arg_key = Array_arg of int * (int * int) list | Int_arg of int | Double_arg of int64

(* A launch's shape is its domain and block, or only its thread box
   [ceil(domain / block) * block] when [Absint.block_invariant] proves
   that the box alone decides its memory effect and every stats field
   but [blocks_launched]: then a launch retuned to another block, or
   over a domain rounding up to the same box, replays the entry. *)
type shape = Launch_shape of (int * int * int) * (int * int * int) | Thread_box of (int * int * int)

type launch_key = {
  code : string;  (** the kernel's parameters and body, marshalled; not its name *)
  shape : shape;
  args : arg_key list;
}

module Memo = Hashtbl.Make (struct
  type t = launch_key

  let equal = ( = )

  let hash = Hashtbl.hash_param 64 256
end)

type launch_entry = {
  m_stats : Interp.stats;  (** private: hits return copies *)
  m_outputs : (int * int) list;  (** written argument position -> final content id *)
}

(* An array argument that a launch wrote in every cell and never read
   does not influence it: the execution never observes its initial
   contents, and its final contents are the ones written. A miss stores
   its entry with such arguments' ids blanked, and a lookup also tries
   every set of blanked positions stored for the same code and shape.
   A cell that ends bitwise equal to its initial value may not have been
   written, so an argument qualifies only if every cell changed. *)
let blank positions key =
  {
    key with
    args =
      List.mapi
        (fun i a ->
          match a with
          | Array_arg (_, sharing) when List.mem i positions -> Array_arg (-1, sharing)
          | a -> a)
        key.args;
  }

let overwritten st id (b : Memory.buf) =
  match st.contents.(id) with
  | Stored s | Seeded { kept = Some s; _ } ->
      let n = A1.dim b in
      let rec go i =
        i >= n || (bits (A1.unsafe_get s i) <> bits (A1.unsafe_get b i) && go (i + 1))
      in
      A1.dim s = n && go 0
  | Seeded _ -> false

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

type program_entry = {
  e_profiles : Profiler.kernel_profile list;
  e_total_us : float;
  e_ids : (string * int) list;  (** final content id of every array *)
}

type t = {
  lock : Mutex.t;
  programs : program_entry Cache.t;
  memo : launch_entry Memo.t;
  blanks : (string * shape, int list) Hashtbl.t;
      (** (code, shape) -> each non-empty set of blanked positions stored *)
  store : store;
  mutable launch_hits : int;
  mutable launch_misses : int;
}

type memo_stats = {
  launch_hits : int;
  launch_misses : int;
  contents : int;
  stored_cells : int;
  hashed_cells : int;
  intern_s : float;
}

let create () =
  {
    lock = Mutex.create ();
    programs = Cache.create ();
    memo = Memo.create 256;
    blanks = Hashtbl.create 16;
    store = create_store ();
    launch_hits = 0;
    launch_misses = 0;
  }

let stats (c : t) = Cache.stats c.programs

let memo_stats (c : t) =
  Mutex.protect c.lock (fun () ->
      let st = c.store in
      {
        launch_hits = c.launch_hits;
        launch_misses = c.launch_misses;
        contents = st.count;
        stored_cells = st.stored_cells;
        hashed_cells = st.hashed_cells;
        intern_s = st.intern_s;
      })

(* The whole marshalled (program, seed, device, layout) tuple is the
   key, so equal keys are equal simulations: no digest decides a hit.
   An overlay layout's runs end with other contents on shared slots, so
   the layout is part of it. *)
let program_key ?layout ~seed device (prog : program) =
  Marshal.to_string (prog, seed, device, (layout : Memory.layout option)) []

let copy_profiles ps =
  List.map
    (fun (p : Profiler.kernel_profile) -> { p with Profiler.stats = Interp.copy_stats p.stats })
    ps

(* The memo key of a launch and its array arguments as (position,
   host); [None] when the launch cannot be keyed (unknown kernel or
   array, arity mismatch): it then runs unmemoized and fails as it
   would without a cache. *)
let launch_key st lv code_of prog (l : launch) =
  match List.find_opt (fun k -> k.k_name = l.l_kernel) prog.p_kernels with
  | None -> None
  | Some k ->
      let hosts =
        List.concat
          (List.mapi (fun i a -> match a with Arg_array h -> [ (i, h) ] | _ -> []) l.l_args)
      in
      if
        List.length k.k_params <> List.length l.l_args
        || not (List.for_all (fun (_, h) -> Memory.mem lv.mem h) hosts)
      then None
      else
        let sharing i h =
          let e = Hashtbl.find lv.extent h in
          List.filter_map
            (fun (j, h') ->
              let ((o', _) as e') = Hashtbl.find lv.extent h' in
              if j < i && overlap e e' then Some (j, fst e - o') else None)
            hosts
        in
        let args =
          List.mapi
            (fun i a ->
              match a with
              | Arg_array h -> Array_arg (id_of st lv h, sharing i h)
              | Arg_int n -> Int_arg n
              | Arg_double f -> Double_arg (bits f))
            l.l_args
        in
        let shape =
          if Kft_analysis.Absint.block_invariant prog l ~block:l.l_block then
            Thread_box (Kft_analysis.Absint.thread_box l.l_domain l.l_block)
          else Launch_shape (l.l_domain, l.l_block)
        in
        Some ({ code = code_of k; shape; args }, hosts)

(* One launch through the memo. A hit blits the stored outputs into the
   live arrays and replays the stats; a miss simulates, interns what it
   wrote and stores the entry. A launch that raises is not stored. *)
let run_launch c lv code_of ?engine ?backend ?trace prog (l : launch) =
  let st = c.store in
  match launch_key st lv code_of prog l with
  | None ->
      (* such a launch raises; were it to return, no id could be trusted *)
      let stats = Interp.launch ?engine ?backend ?trace lv.mem prog l in
      Hashtbl.reset lv.ids;
      stats
  | Some (key, hosts) -> (
      let shape = (key.code, key.shape) in
      let lookup positions = Memo.find_opt c.memo (blank positions key) in
      match List.find_map lookup ([] :: Hashtbl.find_all c.blanks shape) with
      | Some e ->
          c.launch_hits <- c.launch_hits + 1;
          Trace.add trace "launch_memo_hits" 1;
          let written =
            List.sort_uniq compare (List.map (fun (i, id) -> (List.assoc i hosts, id)) e.m_outputs)
          in
          List.iter (fun (h, id) -> materialize st id (Memory.get lv.mem h)) written;
          set_written lv written;
          (* a thread-box entry may come from another block *)
          let stats =
            let gx, gy, gz = grid_of_launch l in
            { e.m_stats with Interp.blocks_launched = gx * gy * gz }
          in
          Interp.record_replay ?backend ?trace prog l stats;
          stats
      | None ->
          c.launch_misses <- c.launch_misses + 1;
          Trace.add trace "launch_memo_misses" 1;
          let stats, (reads, writes) =
            Interp.launch_with_usage ?engine ?backend ?trace lv.mem prog l
          in
          let extent h = Hashtbl.find lv.extent h in
          let blanked =
            List.filter_map
              (fun (i, h) ->
                match List.nth key.args i with
                | Array_arg (initial, [])
                  when List.mem h writes && (not (List.mem h reads))
                       && (not
                             (List.exists
                                (fun (j, h') -> j <> i && overlap (extent h) (extent h'))
                                hosts))
                       && overwritten st initial (Memory.get lv.mem h) ->
                    Some i
                | _ -> None)
              hosts
          in
          if blanked <> [] && not (List.mem blanked (Hashtbl.find_all c.blanks shape)) then
            Hashtbl.add c.blanks shape blanked;
          let written = List.map (fun h -> (h, intern st (Memory.get lv.mem h))) writes in
          set_written lv written;
          let outputs =
            List.filter_map
              (fun (i, h) -> Option.map (fun id -> (i, id)) (List.assoc_opt h written))
              hosts
          in
          Memo.replace c.memo (blank blanked key)
            { m_stats = Interp.copy_stats stats; m_outputs = outputs };
          stats)

let simulate c ?engine ?backend ?trace ?layout ~seed device prog =
  let st = c.store in
  let mem = Memory.create ?layout prog.p_arrays in
  let lv = live_create st mem ~seed in
  let codes = Hashtbl.create 16 in
  let code_of k =
    match Hashtbl.find_opt codes k.k_name with
    | Some s -> s
    | None ->
        let s = Marshal.to_string (k.k_params, k.k_body) [] in
        Hashtbl.replace codes k.k_name s;
        s
  in
  let profiles =
    List.filter_map
      (function
        | Launch l ->
            let stats = run_launch c lv code_of ?engine ?backend ?trace prog l in
            Some (Profiler.profile_of_stats device prog l stats)
        | Copy_to_device _ | Copy_to_host _ -> None)
      prog.p_schedule
  in
  let run = Profiler.run_of_profiles profiles mem in
  let ids = List.map (fun n -> (n, id_of st lv n)) (Memory.names mem) in
  (run, ids)

let restore st ?layout prog e =
  let mem = Memory.create ?layout prog.p_arrays in
  List.iter (fun (n, id) -> materialize st id (Memory.get mem n)) e.e_ids;
  { Profiler.profiles = copy_profiles e.e_profiles; total_time_us = e.e_total_us; memory = mem }

let profile c ?engine ?backend ?trace ?layout ~seed device prog =
  Mutex.protect c.lock @@ fun () ->
  let key = program_key ?layout ~seed device prog in
  let hashed0 = c.store.hashed_cells and intern0 = c.store.intern_s in
  let run =
    match Cache.find c.programs key with
    | Some e ->
        Trace.add trace "sim_cache_hits" 1;
        restore c.store ?layout prog e
    | None ->
        Trace.add trace "sim_cache_misses" 1;
        let run, ids = simulate c ?engine ?backend ?trace ?layout ~seed device prog in
        Cache.add c.programs key
          {
            e_profiles = copy_profiles run.Profiler.profiles;
            e_total_us = run.total_time_us;
            e_ids = ids;
          };
        run
  in
  Trace.note trace "hashed_cells" (Trace.Int (c.store.hashed_cells - hashed0));
  Trace.note trace "intern_s" (Trace.Float (c.store.intern_s -. intern0));
  run

let final_ids c ?layout ~seed device prog =
  Mutex.protect c.lock (fun () ->
      Option.map (fun e -> e.e_ids) (Cache.peek c.programs (program_key ?layout ~seed device prog)))
