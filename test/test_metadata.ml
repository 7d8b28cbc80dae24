(* Metadata gathering and the three text files of Section 3.2.1. *)

module M = Kft_metadata.Metadata

let prog = Util.producer_consumer_program ()

let meta = lazy (fst (M.gather Util.device prog))

let test_gather_entries () =
  let m = Lazy.force meta in
  Alcotest.(check int) "perf entries" 2 (List.length m.performance);
  Alcotest.(check int) "ops entries" 2 (List.length m.operations);
  let p = M.find_perf m "produce" in
  Alcotest.(check bool) "runtime positive" true (p.runtime_us > 0.0);
  Alcotest.(check bool) "bytes positive" true (p.bytes > 0.0);
  Alcotest.(check bool) "occupancy in range" true (p.occupancy > 0.0 && p.occupancy <= 1.0)

let test_shared_arrays_detected () =
  let m = Lazy.force meta in
  let ops = M.find_ops m "produce" in
  (* A and B are both touched by the consumer too *)
  Alcotest.(check bool) "A shared" true (List.mem "A" ops.shared_arrays);
  Alcotest.(check bool) "B shared" true (List.mem "B" ops.shared_arrays)

let test_ops_fields () =
  let m = Lazy.force meta in
  let ops = M.find_ops m "produce" in
  Alcotest.(check bool) "domain" true (ops.domain = (32, 16, 1));
  Alcotest.(check int) "nest depth" 1 ops.nest_depth;
  Alcotest.(check bool) "not irregular" true (ops.irregular = None);
  let a = List.find (fun (x : M.array_op) -> x.array = "A") ops.arrays in
  Alcotest.(check int) "A read offsets" 6 a.reads;
  Alcotest.(check bool) "A radius" true (a.radius = (1, 1, 1))

let test_perf_text_roundtrip () =
  let m = Lazy.force meta in
  let m' = M.perf_of_text (M.perf_to_text m.performance) in
  Alcotest.(check int) "entries" (List.length m.performance) (List.length m');
  List.iter2
    (fun (a : M.perf_entry) (b : M.perf_entry) ->
      Alcotest.(check string) "kernel" a.kernel b.kernel;
      Util.check_float ~eps:1e-5 "runtime" a.runtime_us b.runtime_us;
      Alcotest.(check int) "regs" a.regs_per_thread b.regs_per_thread)
    m.performance m'

let test_ops_text_roundtrip () =
  let m = Lazy.force meta in
  let m' = M.ops_of_text (M.ops_to_text m.operations) in
  List.iter2
    (fun (a : M.ops_entry) (b : M.ops_entry) ->
      Alcotest.(check string) "kernel" a.o_kernel b.o_kernel;
      Alcotest.(check bool) "domain" true (a.domain = b.domain);
      Alcotest.(check int) "arrays" (List.length a.arrays) (List.length b.arrays);
      Alcotest.(check int) "loops" (List.length a.loops) (List.length b.loops);
      Alcotest.(check (list string)) "shared" a.shared_arrays b.shared_arrays)
    m.operations m'

let test_amendable_text () =
  (* the programmer edits the performance file between stages *)
  let m = Lazy.force meta in
  let text = M.perf_to_text m.performance in
  let text =
    String.concat "\n"
      (List.map
         (fun line ->
           if String.length line > 11 && String.sub line 0 10 = "runtime_us" then
             "runtime_us = 123.5"
           else line)
         (String.split_on_char '\n' text))
  in
  let m' = M.perf_of_text text in
  List.iter (fun (p : M.perf_entry) -> Util.check_float "amended" 123.5 p.runtime_us) m'

let test_files_roundtrip () =
  let m = Lazy.force meta in
  let dir = Filename.temp_file "kftmeta" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  M.to_files m ~dir;
  let m' = M.of_files ~dir in
  Alcotest.(check int) "perf entries" (List.length m.performance) (List.length m'.performance);
  Alcotest.(check string) "device" m.device.name m'.device.name

let test_malformed_rejected () =
  (match M.perf_of_text "[kernel k]\nbogus_line_without_equals" with
  | (_ : M.perf_entry list) -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  match M.ops_of_text "stuff outside a section" with
  | (_ : M.ops_entry list) -> Alcotest.fail "expected failure"
  | exception Failure _ -> ()

let test_profile_cache_replay () =
  let cache = M.Sim_cache.create () in
  let r1 = M.profile ~cache Util.device prog in
  let s1 = M.Sim_cache.stats cache in
  Alcotest.(check int) "first run misses" 1 s1.misses;
  Alcotest.(check int) "first run no hits" 0 s1.hits;
  let r2 = M.profile ~cache Util.device prog in
  let s2 = M.Sim_cache.stats cache in
  Alcotest.(check int) "second run hits" 1 s2.hits;
  Alcotest.(check int) "single entry" 1 s2.size;
  Alcotest.(check bool) "replayed memory bit-identical" true
    (Kft_sim.Memory.equal_within ~tol:0.0 r1.memory r2.memory);
  let key (p : Kft_sim.Profiler.kernel_profile) = (p.kernel, p.stats, p.timing) in
  Alcotest.(check bool) "replayed profiles identical" true
    (List.map key r1.profiles = List.map key r2.profiles);
  Util.check_float "replayed total time identical" r1.total_time_us r2.total_time_us;
  (* hits return deep copies: mutating a replayed run must not poison the
     cache for later callers *)
  (Kft_sim.Memory.get r2.memory "A").{0} <- 1e9;
  let r3 = M.profile ~cache Util.device prog in
  Alcotest.(check bool) "mutation isolated from cache" true
    (Kft_sim.Memory.equal_within ~tol:0.0 r1.memory r3.memory)

(* a replay restores the cached memory snapshot: bit-identical to the
   first run, and a private copy that cannot poison the cache *)
let test_sim_cache_replay () =
  let prog = Util.quickstart_program () in
  let cache = M.Sim_cache.create () in
  let r1 = M.profile ~cache Util.device prog in
  let r2 = M.profile ~cache Util.device prog in
  let s = M.Sim_cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.misses;
  Alcotest.(check int) "one hit" 1 s.hits;
  Alcotest.(check bool) "replayed memory bit-identical" true
    (Kft_sim.Memory.equal_within ~tol:0.0 r1.memory r2.memory);
  Alcotest.(check bool) "replayed stats bit-identical" true
    (List.for_all2
       (fun (a : Kft_sim.Profiler.kernel_profile) (b : Kft_sim.Profiler.kernel_profile) ->
         a.stats = b.stats)
       r1.profiles r2.profiles);
  (Kft_sim.Memory.get r2.memory "U").{0} <- -999.0;
  (List.hd r2.profiles).stats.global_read_bytes <- 0;
  let r3 = M.profile ~cache Util.device prog in
  Alcotest.(check bool) "cache unaffected by caller mutation" true
    (Kft_sim.Memory.equal_within ~tol:0.0 r1.memory r3.memory
    && (List.hd r3.profiles).stats = (List.hd r1.profiles).stats)

let test_cache_key_repr_versioned () =
  (* the digest is versioned by the memory-representation tag: a key
     computed under another substrate's tag can never collide with a
     current key, so old entries read as misses instead of replaying
     snapshots from a different representation *)
  let k_cur = M.Sim_cache.key ~seed:42 Util.device prog in
  let k_cur' = M.Sim_cache.key ~tag:M.Sim_cache.repr_tag ~seed:42 Util.device prog in
  let k_old = M.Sim_cache.key ~tag:"mem:float-array-v0" ~seed:42 Util.device prog in
  Alcotest.(check string) "default tag is the current representation" k_cur k_cur';
  Alcotest.(check bool) "old-representation key misses" true (k_cur <> k_old);
  Alcotest.(check bool) "current tag names the bigarray substrate" true
    (M.Sim_cache.repr_tag = "mem:bigarray-arena-v1")

let test_profile_cache_distinguishes_seed () =
  let cache = M.Sim_cache.create () in
  ignore (M.profile ~cache ~seed:1 Util.device prog);
  ignore (M.profile ~cache ~seed:2 Util.device prog);
  let s = M.Sim_cache.stats cache in
  Alcotest.(check int) "different seeds are different keys" 2 s.misses;
  Alcotest.(check int) "no spurious hit" 0 s.hits

let suite =
  [
    Alcotest.test_case "gather produces entries" `Quick test_gather_entries;
    Alcotest.test_case "profile cache replay" `Quick test_profile_cache_replay;
    Alcotest.test_case "profile cache keyed by seed" `Quick test_profile_cache_distinguishes_seed;
    Alcotest.test_case "profile cache replays snapshots" `Quick test_sim_cache_replay;
    Alcotest.test_case "cache key is representation-versioned" `Quick test_cache_key_repr_versioned;
    Alcotest.test_case "shared arrays detected" `Quick test_shared_arrays_detected;
    Alcotest.test_case "operations fields" `Quick test_ops_fields;
    Alcotest.test_case "performance text roundtrip" `Quick test_perf_text_roundtrip;
    Alcotest.test_case "operations text roundtrip" `Quick test_ops_text_roundtrip;
    Alcotest.test_case "text is amendable" `Quick test_amendable_text;
    Alcotest.test_case "files roundtrip" `Quick test_files_roundtrip;
    Alcotest.test_case "malformed text rejected" `Quick test_malformed_rejected;
  ]
