(* Engine: fixed-size domain pool (deterministic parallel map) and the
   string-keyed memo cache. *)

module Engine = Kft_engine.Engine

exception Boom of int

(* unequal per-item work so out-of-order completion is likely: without
   the submission-order reduce, the parallel path would interleave *)
let busy i =
  let n = if i mod 3 = 0 then 20_000 else 200 in
  let acc = ref 0 in
  for k = 1 to n do
    acc := !acc + (k mod 7)
  done;
  ignore (Sys.opaque_identity !acc);
  (i, i * i)

let with_pool jobs f =
  let p = Engine.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown p) (fun () -> f p)

let test_map_ordering () =
  let items = List.init 97 Fun.id in
  let expected = List.map busy items in
  List.iter
    (fun jobs ->
      with_pool jobs (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "order preserved at jobs=%d" jobs)
            true
            (Engine.Pool.map p busy items = expected)))
    [ 1; 2; 4; 7 ]

let test_map_empty () =
  with_pool 4 (fun p ->
      Alcotest.(check (list int)) "empty input" [] (Engine.Pool.map p (fun x -> x) []))

let test_reuse_after_completion () =
  with_pool 3 (fun p ->
      for round = 1 to 5 do
        let n = 10 * round in
        let got = Engine.Pool.map p (fun i -> i + round) (List.init n Fun.id) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.init n (fun i -> i + round))
          got
      done)

let test_exception_propagation () =
  with_pool 4 (fun p ->
      (* the *lowest submission index* failure is the one re-raised *)
      (match Engine.Pool.map p (fun i -> if i >= 5 then raise (Boom i) else i) (List.init 20 Fun.id) with
      | (_ : int list) -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "lowest failing index" 5 i);
      (* the pool survives a failing batch *)
      Alcotest.(check (list int)) "pool reusable after exception" [ 0; 1; 2; 3 ]
        (Engine.Pool.map p Fun.id (List.init 4 Fun.id)))

let test_map_after_shutdown () =
  let p = Engine.Pool.create ~jobs:2 in
  Engine.Pool.shutdown p;
  Engine.Pool.shutdown p;
  (* idempotent *)
  match Engine.Pool.map p Fun.id [ 1 ] with
  | (_ : int list) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_jobs_clamped () =
  with_pool 0 (fun p ->
      Alcotest.(check int) "jobs < 1 behaves as 1" 1 (Engine.Pool.jobs p);
      Alcotest.(check (list int)) "still maps" [ 2; 4 ] (Engine.Pool.map p (fun x -> 2 * x) [ 1; 2 ]))

let test_steal_stats () =
  with_pool 4 (fun p ->
      let items = List.init 50 Fun.id in
      let expected = List.map busy items in
      Alcotest.(check bool) "order preserved" true (Engine.Pool.map p busy items = expected);
      let s = Engine.Pool.stats p in
      Alcotest.(check int) "one batch" 1 s.Engine.Pool.st_batches;
      Alcotest.(check int) "all items" 50 s.Engine.Pool.st_items;
      Alcotest.(check bool) "deques were filled" true (s.Engine.Pool.st_max_queue >= 1);
      let tasks = List.fold_left ( + ) 0 s.Engine.Pool.st_worker_tasks in
      Alcotest.(check bool) "every chunk ran exactly once" true
        (tasks >= 1 && tasks <= s.Engine.Pool.st_max_queue);
      (* steals move tasks between domains; they can never exceed the
         number of tasks executed and never go negative *)
      Alcotest.(check bool) "steal counter bounded" true
        (s.Engine.Pool.st_steals >= 0 && s.Engine.Pool.st_steals <= tasks);
      (* a second batch reuses the same deques; stats accumulate *)
      ignore (Engine.Pool.map p busy items);
      let s2 = Engine.Pool.stats p in
      Alcotest.(check int) "two batches" 2 s2.Engine.Pool.st_batches;
      Alcotest.(check bool) "steals monotonic" true
        (s2.Engine.Pool.st_steals >= s.Engine.Pool.st_steals))

let test_cache_counters () =
  let c : int Engine.Cache.t = Engine.Cache.create () in
  Alcotest.(check bool) "miss on empty" true (Engine.Cache.find c "a" = None);
  Engine.Cache.add c "a" 1;
  Alcotest.(check bool) "hit after add" true (Engine.Cache.find c "a" = Some 1);
  Alcotest.(check bool) "peek does not count" true (Engine.Cache.peek c "a" = Some 1);
  Engine.Cache.add c "a" 99;
  Alcotest.(check bool) "first insertion wins" true (Engine.Cache.peek c "a" = Some 1);
  Engine.Cache.add c "b" 2;
  let s = Engine.Cache.stats c in
  Alcotest.(check int) "hits" 1 s.hits;
  Alcotest.(check int) "misses" 1 s.misses;
  Alcotest.(check int) "size" 2 s.size

let test_with_engine () =
  let leaked = ref None in
  let r =
    Engine.with_engine ~jobs:3 ~memo:false (fun e ->
        leaked := Some e;
        Alcotest.(check int) "jobs" 3 (Engine.jobs e);
        Alcotest.(check bool) "memo off" false (Engine.memo_enabled e);
        Engine.map e (fun x -> x + 1) [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "result" [ 2; 3; 4 ] r;
  (* shut down on the way out *)
  match Engine.map (Option.get !leaked) Fun.id [ 1 ] with
  | (_ : int list) -> Alcotest.fail "engine should be shut down"
  | exception Invalid_argument _ -> ()

let test_with_engine_on_exception () =
  let leaked = ref None in
  (match
     Engine.with_engine ~jobs:2 (fun e ->
         leaked := Some e;
         raise (Boom 1))
   with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom 1 -> ());
  match Engine.map (Option.get !leaked) Fun.id [ 1 ] with
  | (_ : int list) -> Alcotest.fail "engine should be shut down after exception"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "map preserves submission order" `Quick test_map_ordering;
    Alcotest.test_case "map on empty list" `Quick test_map_empty;
    Alcotest.test_case "pool reusable across batches" `Quick test_reuse_after_completion;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "map after shutdown rejected" `Quick test_map_after_shutdown;
    Alcotest.test_case "jobs clamped to >= 1" `Quick test_jobs_clamped;
    Alcotest.test_case "work-stealing stats are coherent" `Quick test_steal_stats;
    Alcotest.test_case "cache hit/miss/size counters" `Quick test_cache_counters;
    Alcotest.test_case "with_engine shuts down" `Quick test_with_engine;
    Alcotest.test_case "with_engine shuts down on exception" `Quick test_with_engine_on_exception;
  ]
