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
   for bit). Every content's cells live in the store's slabs, and a
   cached run's memory shares them ([Memory.of_shared]): a launch copies
   only the arrays it may write, and a new content it writes is donated
   to the store as it is. Seeded contents are named by (seed, name,
   length) and never hashed: their cells are a pure function of those
   three ([Memory.seeded_cell]), computed once straight into a slab. *)
type content = Seeded of { seed : int; name : string; cells : Memory.buf } | Stored of Memory.buf

let cells_of = function Seeded { cells; _ } | Stored cells -> cells

type store = {
  mutable contents : content array;  (** id -> content; the first [count] are used *)
  mutable count : int;
  by_hash : (int, int) Hashtbl.t;  (** full hash -> stored ids *)
  by_head : (int * int64, int) Hashtbl.t;  (** (length, first cell's bits) -> stored ids *)
  seeded_by_len : (int, int) Hashtbl.t;  (** length -> seeded ids *)
  seeded_names : (int * string * int, int) Hashtbl.t;  (** (seed, name, length) -> id *)
  slab_lock : Mutex.t;
      (** guards the slab: a caller's [Memory.get] on a returned run
          copies into it without holding the cache's lock *)
  mutable slab : Memory.buf;
  mutable slab_used : int;
  mutable slab_top : Memory.buf list;  (** views cut from [slab], newest first *)
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
    slab_lock = Mutex.create ();
    slab = Memory.alloc_buf 0;
    slab_used = 0;
    slab_top = [];
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

let head (b : Memory.buf) = if A1.dim b = 0 then 0L else bits (A1.unsafe_get b 0)

let add_content st c =
  if st.count = Array.length st.contents then begin
    let grown = Array.make (max 64 (2 * st.count)) c in
    Array.blit st.contents 0 grown 0 st.count;
    st.contents <- grown
  end;
  st.contents.(st.count) <- c;
  st.count <- st.count + 1;
  st.count - 1

let keep st c =
  st.stored_cells <- st.stored_cells + A1.dim (cells_of c);
  add_content st c

(* Contents and private copies are sub-views of large slabs, never one
   Bigarray each: every Bigarray allocation is a custom block the GC
   accounts for, and per-array ones cost more in GC work than the
   copies themselves. Slabs double from 64 Kcells up to 4 Mcells
   (32 MB); a buffer larger than the next slab gets a slab of its own
   size. *)
let slab_min = 1 lsl 16

let slab_max = 1 lsl 22

let alloc st n =
  Mutex.protect st.slab_lock @@ fun () ->
  if st.slab_used + n > A1.dim st.slab then begin
    st.slab <- Memory.alloc_buf (max n (min slab_max (max slab_min (2 * A1.dim st.slab))));
    st.slab_used <- 0;
    st.slab_top <- []
  end;
  let v = A1.sub st.slab st.slab_used n in
  st.slab_used <- st.slab_used + n;
  st.slab_top <- v :: st.slab_top;
  v

(* Give back the cells of a view from [alloc] that nothing keeps. Only
   the newest view of the current slab goes back; an older one stays a
   hole until the slab dies with the cache. *)
let reclaim st (v : Memory.buf) =
  Mutex.protect st.slab_lock @@ fun () ->
  match st.slab_top with
  | top :: rest when top == v ->
      st.slab_used <- st.slab_used - A1.dim v;
      st.slab_top <- rest
  | _ -> ()

(* The id of the contents of [b], a buffer from [alloc]: a full hash
   picks the stored candidates and a bitwise comparison decides; a
   seeded content of the same length is a candidate when its first cell
   matches. A new content keeps [b] itself, which nothing may write
   from then on. *)
let intern st (b : Memory.buf) =
  let t0 = Kft_engine.Engine.now () in
  let n = A1.dim b in
  st.hashed_cells <- st.hashed_cells + n;
  let h = hash_buf b in
  let is_b id = Memory.equal_bufs (cells_of st.contents.(id)) b in
  let id =
    match List.find_opt is_b (Hashtbl.find_all st.by_hash h) with
    | Some id -> id
    | None -> (
        let hd = head b in
        let seeded_match id = head (cells_of st.contents.(id)) = hd && is_b id in
        match List.find_opt seeded_match (Hashtbl.find_all st.seeded_by_len n) with
        | Some id -> id
        | None ->
            let id = keep st (Stored b) in
            Hashtbl.add st.by_hash h id;
            Hashtbl.add st.by_head (n, hd) id;
            id)
  in
  st.intern_s <- st.intern_s +. (Kft_engine.Engine.now () -. t0);
  id

(* The id of array [name]'s seeded pattern of [len] cells, found
   without hashing: the pattern is computed once into a slab, and only
   contents of the same length whose first cell matches are compared
   in full. *)
let seeded st ~seed name len =
  match Hashtbl.find_opt st.seeded_names (seed, name, len) with
  | Some id -> id
  | None ->
      let cells = alloc st len in
      Memory.fill_seeded ~seed name cells;
      let hd = head cells in
      let same id =
        let other = cells_of st.contents.(id) in
        head other = hd && Memory.equal_bufs cells other
      in
      let id =
        match
          List.find_opt same
            (Hashtbl.find_all st.seeded_by_len len @ Hashtbl.find_all st.by_head (len, hd))
        with
        | Some id ->
            reclaim st cells;
            id
        | None ->
            let id = keep st (Seeded { seed; name; cells }) in
            Hashtbl.add st.seeded_by_len len id;
            id
      in
      Hashtbl.replace st.seeded_names (seed, name, len) id;
      id

(* ------------------------------------------------------------------ *)
(* One run's memory                                                    *)
(* ------------------------------------------------------------------ *)

(* A memory over the store: every array starts as the cells of its
   content [id_of name], shared. A launch copies an array it may write
   into a slab ([alloc]); a memory handed to the caller copies into a
   buffer of its own, so the caller's copies die with its memory and
   take no slab cells. *)
let memory_of ?(alloc = Memory.alloc_buf) st (prog : program) id_of =
  Memory.of_shared ~alloc
    (List.map (fun d -> (d, cells_of st.contents.(id_of d.a_name))) prog.p_arrays)

(* After a launch: every array it made private is shared again, newest
   copy first so that the slab takes back every copy it does not keep.
   A written one gets the id of its new contents, its private cells
   donated when they are new; any other goes back to its content
   without hashing. [ids] holds every array's content id. *)
let settle st ids mem ~written hosts =
  List.iter
    (fun h ->
      if not (Memory.is_shared mem h) then begin
        let b = Memory.read mem h in
        let id = if written h then intern st b else Hashtbl.find ids h in
        let kept = cells_of st.contents.(id) in
        Memory.set_shared mem h kept;
        if kept != b then reclaim st b;
        Hashtbl.replace ids h id
      end)
    (List.rev hosts)

(* ------------------------------------------------------------------ *)
(* Launch memo                                                         *)
(* ------------------------------------------------------------------ *)

(* A launch's stats and writes are a function of its code, its shape,
   its scalar arguments, the contents of its array arguments and which
   of those arguments share storage: [Array_arg (id, sharing)] lists
   the earlier positions bound to the same host array. *)
type arg_key = Array_arg of int * int list | Int_arg of int | Double_arg of int64

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
  let s = cells_of st.contents.(id) in
  let n = A1.dim b in
  let rec go i = i >= n || (bits (A1.unsafe_get s i) <> bits (A1.unsafe_get b i) && go (i + 1)) in
  A1.dim s = n && go 0

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

(* The whole marshalled (program, seed, device) tuple is the key, so
   equal keys are equal simulations: no digest decides a hit. *)
let program_key ~seed device (prog : program) = Marshal.to_string (prog, seed, device) []

let copy_profiles ps =
  List.map
    (fun (p : Profiler.kernel_profile) -> { p with Profiler.stats = Interp.copy_stats p.stats })
    ps

(* The memo key of a launch and its array arguments as (position,
   host); [None] when the launch cannot be keyed (unknown kernel or
   array, arity mismatch): it then runs unmemoized and fails as it
   would without a cache. *)
let launch_key ~license ids mem code_of prog (l : launch) =
  match List.find_opt (fun k -> k.k_name = l.l_kernel) prog.p_kernels with
  | None -> None
  | Some k ->
      let hosts =
        List.concat
          (List.mapi (fun i a -> match a with Arg_array h -> [ (i, h) ] | _ -> []) l.l_args)
      in
      if
        List.length k.k_params <> List.length l.l_args
        || not (List.for_all (fun (_, h) -> Memory.mem mem h) hosts)
      then None
      else
        let sharing i h =
          List.filter_map (fun (j, h') -> if j < i && h' = h then Some j else None) hosts
        in
        let args =
          List.mapi
            (fun i a ->
              match a with
              | Arg_array h -> Array_arg (Hashtbl.find ids h, sharing i h)
              | Arg_int n -> Int_arg n
              | Arg_double f -> Double_arg (bits f))
            l.l_args
        in
        let shape =
          if Kft_analysis.Absint.block_invariant ~license prog l ~block:l.l_block then
            Thread_box (Kft_analysis.Absint.thread_box l.l_domain l.l_block)
          else Launch_shape (l.l_domain, l.l_block)
        in
        Some ({ code = code_of k; shape; args }, hosts)

(* One launch through the memo. A hit switches the written arrays to
   the stored outputs and replays the stats; a miss simulates, settles
   what it copied and stores the entry. A launch that raises is not
   stored. *)
let run_launch c ids mem code_of ?engine ?backend ?trace prog (l : launch) =
  let st = c.store in
  (* the key and a missed launch's schedule share one analysis *)
  let license = Kft_analysis.Absint.license prog l in
  match launch_key ~license ids mem code_of prog l with
  | None ->
      (* such a launch raises; were it to return, every array it copied
         is interned *)
      let stats = Interp.launch ?engine ?backend ?trace mem prog l in
      settle st ids mem ~written:(fun _ -> true) (Memory.names mem);
      stats
  | Some (key, hosts) -> (
      let shape = (key.code, key.shape) in
      let lookup positions = Memo.find_opt c.memo (blank positions key) in
      match List.find_map lookup ([] :: Hashtbl.find_all c.blanks shape) with
      | Some e ->
          c.launch_hits <- c.launch_hits + 1;
          Trace.add trace "launch_memo_hits" 1;
          List.iter
            (fun (i, id) ->
              let h = List.assoc i hosts in
              Memory.set_shared mem h (cells_of st.contents.(id));
              Hashtbl.replace ids h id)
            e.m_outputs;
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
            Interp.launch_with_usage ?engine ?backend ~license ?trace mem prog l
          in
          let blanked =
            List.filter_map
              (fun (i, h) ->
                match List.nth key.args i with
                | Array_arg (initial, [])
                  when List.mem h writes && (not (List.mem h reads))
                       && (not (List.exists (fun (j, h') -> j <> i && h' = h) hosts))
                       && overwritten st initial (Memory.read mem h) ->
                    Some i
                | _ -> None)
              hosts
          in
          if blanked <> [] && not (List.mem blanked (Hashtbl.find_all c.blanks shape)) then
            Hashtbl.add c.blanks shape blanked;
          (* [Interp] copied the written hosts in argument order *)
          let distinct =
            List.fold_left (fun acc (_, h) -> if List.mem h acc then acc else h :: acc) [] hosts
          in
          settle st ids mem ~written:(fun h -> List.mem h writes) (List.rev distinct);
          let outputs =
            List.filter_map
              (fun (i, h) -> if List.mem h writes then Some (i, Hashtbl.find ids h) else None)
              hosts
          in
          Memo.replace c.memo (blank blanked key)
            { m_stats = Interp.copy_stats stats; m_outputs = outputs };
          stats)

let simulate c ?engine ?backend ?trace ~seed device prog =
  let st = c.store in
  let ids = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace ids d.a_name (seeded st ~seed d.a_name (array_cells d)))
    (List.sort (fun a b -> compare a.a_name b.a_name) prog.p_arrays);
  let mem = memory_of ~alloc:(alloc st) st prog (Hashtbl.find ids) in
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
            let stats = run_launch c ids mem code_of ?engine ?backend ?trace prog l in
            Some (Profiler.profile_of_stats device prog l stats)
        | Copy_to_device _ | Copy_to_host _ -> None)
      prog.p_schedule
  in
  let run = Profiler.run_of_profiles profiles (memory_of st prog (Hashtbl.find ids)) in
  (run, List.map (fun n -> (n, Hashtbl.find ids n)) (Memory.names mem))

let restore st prog e =
  {
    Profiler.profiles = copy_profiles e.e_profiles;
    total_time_us = e.e_total_us;
    memory = memory_of st prog (fun n -> List.assoc n e.e_ids);
  }

(* A cached run holds no arena, so [layout] changes nothing: the
   parameter stays for callers that pass one. *)
let profile c ?engine ?backend ?trace ?layout:_ ~seed device prog =
  Mutex.protect c.lock @@ fun () ->
  let key = program_key ~seed device prog in
  let hashed0 = c.store.hashed_cells and intern0 = c.store.intern_s in
  let run =
    match Cache.find c.programs key with
    | Some e ->
        Trace.add trace "sim_cache_hits" 1;
        restore c.store prog e
    | None ->
        Trace.add trace "sim_cache_misses" 1;
        let run, ids = simulate c ?engine ?backend ?trace ~seed device prog in
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

let final_ids c ?layout:_ ~seed device prog =
  Mutex.protect c.lock (fun () ->
      Option.map (fun e -> e.e_ids) (Cache.peek c.programs (program_key ~seed device prog)))

module Internal = struct
  let slab_used c = Mutex.protect c.store.slab_lock (fun () -> c.store.slab_used)

  let check_store c =
    Mutex.protect c.lock @@ fun () ->
    let st = c.store in
    let hashed =
      Hashtbl.fold
        (fun h id acc ->
          if hash_buf (cells_of st.contents.(id)) = h then acc
          else Printf.sprintf "content %d no longer hashes to its interned value" id :: acc)
        st.by_hash []
    in
    let seeded =
      List.filter_map
        (fun id ->
          match st.contents.(id) with
          | Seeded { seed; name; cells } ->
              let cell = Memory.seeded_cell ~seed name in
              let rec go i =
                i >= A1.dim cells || (bits (A1.unsafe_get cells i) = bits (cell i) && go (i + 1))
              in
              if go 0 then None
              else
                Some (Printf.sprintf "seeded content %d (%s, seed %d) was overwritten" id name seed)
          | Stored _ -> None)
        (List.init st.count Fun.id)
    in
    List.sort compare hashed @ seeded
end
