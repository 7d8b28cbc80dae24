let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Fixed-size domain pool                                              *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type stats = {
    st_jobs : int;
    st_workers : int;
    st_batches : int;
    st_items : int;
    st_max_queue : int;
    st_steals : int;
    st_worker_tasks : int list;
  }

  type t = {
    jobs : int;  (** requested evaluation width *)
    workers : int;  (** domains spawned on first use: capped at the core count *)
    mutable spawned : bool;
    mutable domains : unit Domain.t list;
    queue : (unit -> unit) Queue.t;  (** FIFO of submitted chunks *)
    m : Mutex.t;
    nonempty : Condition.t;
    mutable shut : bool;
    (* instrumentation (trace side channel): batches/items count [map]
       calls and their submission sizes; [max_queue] is the deepest
       queue observed at submission; [worker_tasks.(i)] counts tasks
       executed by worker [i] (slot 0 doubles as the inline/sequential
       path). Each worker_tasks slot is written by exactly one domain and
       read only after the batch's completion handshake, so the reads
       are quiescent. *)
    mutable batches : int;
    mutable items : int;
    mutable max_queue : int;
    worker_tasks : int array;
  }

  let jobs t = t.jobs
  let workers t = t.workers

  let stats t =
    {
      st_jobs = t.jobs;
      st_workers = t.workers;
      st_batches = t.batches;
      st_items = t.items;
      st_max_queue = t.max_queue;
      st_steals = 0;
      st_worker_tasks = Array.to_list t.worker_tasks;
    }

  let rec worker pool i =
    Mutex.lock pool.m;
    let rec next () =
      match Queue.take_opt pool.queue with
      | Some _ as t -> t
      | None ->
          if pool.shut then None
          else begin
            Condition.wait pool.nonempty pool.m;
            next ()
          end
    in
    let task = next () in
    Mutex.unlock pool.m;
    match task with
    | None -> ()
    | Some f ->
        f ();
        pool.worker_tasks.(i) <- pool.worker_tasks.(i) + 1;
        worker pool i

  let create ~jobs =
    let jobs = max 1 jobs in
    (* never oversubscribe: on a machine with fewer cores than [jobs],
       extra domains only add stop-the-world GC coordination without any
       extra throughput.  The determinism contract (results reduced in
       submission index order) makes the cap observationally invisible. *)
    let workers = min jobs (Domain.recommended_domain_count ()) in
    {
      jobs;
      workers;
      spawned = false;
      domains = [];
      queue = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      shut = false;
      batches = 0;
      items = 0;
      max_queue = 0;
      worker_tasks = Array.make workers 0;
    }

  (* Worker domains are spawned lazily on the first parallel [map]: even
     an idle extra domain taxes the whole process (every minor GC is a
     stop-the-world rendezvous across all domains), so an engine whose
     launches all take the adaptive serial fallback must cost nothing.
     Called with the pool mutex held, from the single [map] coordinator;
     the fresh workers block on that same mutex until submission
     completes and then find the queue already filled. *)
  let ensure_spawned pool =
    if not pool.spawned then begin
      pool.spawned <- true;
      pool.domains <- List.init pool.workers (fun i -> Domain.spawn (fun () -> worker pool i))
    end

  let shutdown pool =
    let join_these =
      Mutex.protect pool.m (fun () ->
          if pool.shut then []
          else begin
            pool.shut <- true;
            Condition.broadcast pool.nonempty;
            let ds = pool.domains in
            pool.domains <- [];
            ds
          end)
    in
    List.iter Domain.join join_these

  let map pool f items =
    if Mutex.protect pool.m (fun () -> pool.shut) then
      invalid_arg "Engine.Pool.map: pool is shut down";
    match items with
    | [] -> []
    | items when pool.jobs <= 1 ->
        pool.batches <- pool.batches + 1;
        pool.items <- pool.items + List.length items;
        pool.worker_tasks.(0) <- pool.worker_tasks.(0) + 1;
        List.map f items
    | items ->
        let arr = Array.of_list items in
        let n = Array.length arr in
        let results = Array.make n None in
        let done_m = Mutex.create () in
        let done_c = Condition.create () in
        (* submit contiguous chunks rather than one task per item: the
           queue/condvar handshake costs the same per task regardless of
           task size, so chunking keeps the coordination overhead
           proportional to [jobs], not to [n].  A few chunks per worker
           smooths uneven per-item work. *)
        let chunks = min n (pool.workers * 4) in
        let chunk_size = (n + chunks - 1) / chunks in
        let remaining = ref ((n + chunk_size - 1) / chunk_size) in
        let n_chunks = !remaining in
        let task lo hi () =
          for i = lo to hi do
            results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e)
          done;
          Mutex.protect done_m (fun () ->
              decr remaining;
              if !remaining = 0 then Condition.signal done_c)
        in
        pool.batches <- pool.batches + 1;
        pool.items <- pool.items + n;
        Mutex.protect pool.m (fun () ->
            ensure_spawned pool;
            for c = 0 to n_chunks - 1 do
              let lo = c * chunk_size in
              let hi = min (n - 1) (lo + chunk_size - 1) in
              Queue.add (task lo hi) pool.queue
            done;
            pool.max_queue <- max pool.max_queue (Queue.length pool.queue);
            Condition.broadcast pool.nonempty);
        Mutex.lock done_m;
        while !remaining > 0 do
          Condition.wait done_c done_m
        done;
        Mutex.unlock done_m;
        (* reduce in submission index order; re-raise the lowest-index
           failure only after every task has finished, so the pool (and
           the results of unaffected tasks) stay consistent *)
        Array.to_list results
        |> List.map (function
             | Some (Ok v) -> v
             | Some (Error e) -> raise e
             | None -> assert false)
end

(* ------------------------------------------------------------------ *)
(* Memo cache                                                          *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  type 'a t = {
    tbl : (string, 'a) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  type stats = { hits : int; misses : int; size : int }

  let create () = { tbl = Hashtbl.create 256; hits = 0; misses = 0 }

  let peek c key = Hashtbl.find_opt c.tbl key

  let find c key =
    match Hashtbl.find_opt c.tbl key with
    | Some _ as r ->
        c.hits <- c.hits + 1;
        r
    | None ->
        c.misses <- c.misses + 1;
        None

  let add c key v = if not (Hashtbl.mem c.tbl key) then Hashtbl.replace c.tbl key v

  let stats (c : 'a t) : stats = { hits = c.hits; misses = c.misses; size = Hashtbl.length c.tbl }
end

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

type t = { pool : Pool.t; memo : bool }

let create ?(jobs = 1) ?(memo = true) () = { pool = Pool.create ~jobs; memo }

let jobs t = Pool.jobs t.pool
let workers t = Pool.workers t.pool

let memo_enabled t = t.memo

let pool_stats t = Pool.stats t.pool

let map t f items = Pool.map t.pool f items

let shutdown t = Pool.shutdown t.pool

let with_engine ?jobs ?memo f =
  let e = create ?jobs ?memo () in
  Fun.protect ~finally:(fun () -> shutdown e) (fun () -> f e)
