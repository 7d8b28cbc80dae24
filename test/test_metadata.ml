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

(* a replay rebuilds the cached run: bit-identical to the first run,
   and private to the caller, so mutating it cannot poison the cache *)
let check_profile_cache_replay (prog : Kft_cuda.Ast.program) =
  let what s = prog.p_name ^ ": " ^ s in
  let cache = M.Sim_cache.create () in
  let r1 = M.profile ~cache Util.device prog in
  let s1 = M.Sim_cache.stats cache in
  Alcotest.(check (pair int int)) (what "first run misses") (0, 1) (s1.hits, s1.misses);
  let r2 = M.profile ~cache Util.device prog in
  let s2 = M.Sim_cache.stats cache in
  Alcotest.(check (pair int int)) (what "second run hits") (1, 1) (s2.hits, s2.misses);
  Alcotest.(check int) (what "single entry") 1 s2.size;
  Alcotest.(check bool) (what "replayed memory bit-identical") true
    (Kft_sim.Memory.bits_equal r1.memory r2.memory);
  let key (p : Kft_sim.Profiler.kernel_profile) = (p.kernel, p.stats, p.timing) in
  Alcotest.(check bool) (what "replayed profiles identical") true
    (List.map key r1.profiles = List.map key r2.profiles);
  Util.check_float (what "replayed total time identical") r1.total_time_us r2.total_time_us;
  (Kft_sim.Memory.get r2.memory (List.hd (Kft_sim.Memory.names r2.memory))).{0} <- -999.0;
  (List.hd r2.profiles).stats.global_read_bytes <- 0;
  let r3 = M.profile ~cache Util.device prog in
  Alcotest.(check bool) (what "cache unaffected by caller mutation") true
    (Kft_sim.Memory.bits_equal r1.memory r3.memory
    && (List.hd r3.profiles).stats = (List.hd r1.profiles).stats)

let test_profile_cache_replay () = check_profile_cache_replay prog

let test_sim_cache_replay () = check_profile_cache_replay (Util.quickstart_program ())

let test_profile_cache_distinguishes_seed () =
  let cache = M.Sim_cache.create () in
  ignore (M.profile ~cache ~seed:1 Util.device prog);
  ignore (M.profile ~cache ~seed:2 Util.device prog);
  let s = M.Sim_cache.stats cache in
  Alcotest.(check int) "different seeds are different keys" 2 s.misses;
  Alcotest.(check int) "no spurious hit" 0 s.hits

(* ------------------------------------------------------------------ *)
(* Content store and launch memo                                       *)
(* ------------------------------------------------------------------ *)

module Mem = Kft_sim.Memory
module Profiler = Kft_sim.Profiler
open Kft_cuda.Ast

(* profiles through Marshal, so their floats compare by their bits
   (without sharing: a replayed launch may share boxed fields with the
   launch it replays) *)
let same_run (a : Profiler.run) (b : Profiler.run) =
  let bytes ps = Marshal.to_string ps [ Marshal.No_sharing ] in
  bytes a.profiles = bytes b.profiles
  && Int64.bits_of_float a.total_time_us = Int64.bits_of_float b.total_time_us
  && Mem.bits_equal a.memory b.memory

let check_same_run what cached reference =
  Alcotest.(check bool) (what ^ ": memo on = memo off, bit for bit") true (same_run cached reference)

let memo_counts c =
  let m = M.Sim_cache.memo_stats c in
  (m.launch_hits, m.launch_misses)

let test_memo_apps_bit_identical () =
  let apps = Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all () in
  List.iter
    (fun (app : Kft_apps.Apps.app) ->
      let p = app.program in
      let config =
        {
          Kft_framework.Framework.default_config with
          gga_params = { Kft_gga.Gga.default_params with generations = 2; population = 6 };
          verify_mode = Kft_framework.Framework.Verify_off;
        }
      in
      let t = (Kft_framework.Framework.transform ~config p).transformed in
      (* one cache: the transform's launches replay the source's where
         their code, shape and inputs match, and the source's second
         profile is a program hit rebuilt from the content store *)
      let c = M.Sim_cache.create () in
      let src = M.profile ~cache:c Util.device p in
      let h0, _ = memo_counts c in
      let tr = M.profile ~cache:c Util.device t in
      let again = M.profile ~cache:c Util.device p in
      let h1, _ = memo_counts c in
      Alcotest.(check int) (p.p_name ^ ": source profiled once") 1 (M.Sim_cache.stats c).hits;
      Alcotest.(check bool) (p.p_name ^ ": hit counter monotone") true (h1 >= h0);
      let ref_src = Profiler.profile Util.device p in
      check_same_run (p.p_name ^ " source") src ref_src;
      check_same_run (p.p_name ^ " source, program hit") again ref_src;
      check_same_run (p.p_name ^ " transformed") tr (Profiler.profile Util.device t))
    apps

let launches_of (p : program) =
  List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule

(* Each bundled program is transformed twice, by the automated codegen
   and by the expert one with block tuning, and each transform profiled
   on a cache that first profiled its source: launches codegen retuned
   to another block replay the source's thread-box entries. Their stats
   (field by field), memory and canonical [launch:<k>] counters must be
   a fresh simulation's, and they must replay exactly as often as they
   would under their source block. *)
let test_memo_retuned_replays () =
  let module F = Kft_framework.Framework in
  let retuned = ref 0 in
  List.iter
    (fun (app : Kft_apps.Apps.app) ->
      let p = app.program in
      List.iter
        (fun (label, codegen_options) ->
          let what = p.p_name ^ "/" ^ label in
          let config =
            {
              F.default_config with
              gga_params = { Kft_gga.Gga.default_params with generations = 2; population = 6 };
              verify_mode = F.Verify_off;
              codegen_options;
            }
          in
          let t = (F.transform ~config p).transformed in
          let source_block (l : launch) =
            List.find_map
              (fun (s : launch) ->
                if s.l_kernel = l.l_kernel && s.l_args = l.l_args && s.l_domain = l.l_domain then
                  Some s.l_block
                else None)
              (launches_of p)
          in
          let restored =
            {
              t with
              p_schedule =
                List.map
                  (function
                    | Launch l -> (
                        match source_block l with
                        | Some b when b <> l.l_block ->
                            incr retuned;
                            Launch { l with l_block = b }
                        | _ -> Launch l)
                    | op -> op)
                  t.p_schedule;
            }
          in
          (* renamed, so that no program entry answers for it *)
          let hits_after_source prog ?trace () =
            let c = M.Sim_cache.create () in
            ignore (M.profile ~cache:c Util.device p);
            let h0, _ = memo_counts c in
            let run = M.profile ~cache:c ?trace Util.device { prog with p_name = "probe" } in
            (run, fst (memo_counts c) - h0)
          in
          let tr = Kft_trace.Trace.create "cached" and fresh_tr = Kft_trace.Trace.create "fresh" in
          let cached, hits = hits_after_source t ~trace:tr () in
          check_same_run what cached (Profiler.profile ~trace:fresh_tr Util.device t);
          List.iter
            (fun (k : kernel) ->
              let span = "launch:" ^ k.k_name in
              Alcotest.(check (list (pair string int)))
                (what ^ ": " ^ span ^ " counters")
                (Kft_trace.Trace.counters fresh_tr span)
                (Kft_trace.Trace.counters tr span))
            t.p_kernels;
          Alcotest.(check int) (what ^ ": replays as under the source blocks")
            (snd (hits_after_source restored ())) hits)
        [
          ("auto", Kft_codegen.Fusion.auto_options);
          ("expert-tuned", { Kft_codegen.Fusion.manual_options with tune_blocks = true });
        ])
    (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ());
  Alcotest.(check bool) "some launch was retuned" true (!retuned > 0)

(* the fuzzed program, renamed throughout: a program-level miss whose
   every launch is a memo hit *)
let renamed (p : program) =
  let r n = "r_" ^ n in
  {
    p_name = r p.p_name;
    p_arrays = p.p_arrays;
    p_kernels = List.map (fun k -> { k with k_name = r k.k_name }) p.p_kernels;
    p_schedule =
      List.map
        (function Launch l -> Launch { l with l_kernel = r l.l_kernel } | op -> op)
        p.p_schedule;
  }

let prop_memo_fuzz =
  QCheck.Test.make ~name:"launch memo: cached runs are bit-identical to fresh ones" ~count:40
    Util.fuzz_sample_arb (fun s ->
      let p = s.Util.fz_program in
      let c = M.Sim_cache.create () in
      let first = M.profile ~cache:c ~seed:7 Util.device p in
      let h0, m0 = memo_counts c in
      let second = M.profile ~cache:c ~seed:7 Util.device (renamed p) in
      let h1, m1 = memo_counts c in
      let launches =
        List.length (List.filter (function Launch _ -> true | _ -> false) p.p_schedule)
      in
      same_run first (Profiler.profile ~seed:7 Util.device p)
      && same_run second (Profiler.profile ~seed:7 Util.device (renamed p))
      && h1 - h0 = launches && m1 = m0)

(* one-dimensional kernels over [tiny_n] cells *)
let tiny_n = 256

let tiny_src =
  {|
__global__ void copy(const double *X, double *Y, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { Y[i] = X[i]; }
}
__global__ void addone(const double *X, double *Y, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { Y[i] = X[i] + 1.0; }
}
__global__ void scale5(double *X, int n, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i == 5) { X[i] = c * X[i]; }
}
__global__ void fill(double *X, int n, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { X[i] = c; }
}
__global__ void twice(double *X, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { X[i] = 2.0 * X[i]; }
}
__global__ void tail(double *X, int n, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= 1 && i < n) { X[i] = c; }
}
__global__ void oob(double *X, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) { X[i + 1] = 1.0; }
}
|}

let tiny ?(name = "tiny") ops =
  {
    p_name = name;
    p_arrays =
      List.map (fun a -> { a_name = a; a_elem_ty = Double; a_dims = [ tiny_n; 1; 1 ] }) [ "A"; "B"; "C"; "D" ];
    p_kernels = Kft_cuda.Parse.kernels tiny_src;
    p_schedule =
      List.map
        (fun (k, args) ->
          Launch
            {
              l_kernel = k;
              l_domain = (tiny_n, 1, 1);
              l_block = (64, 1, 1);
              l_args = List.map (fun a -> Arg_array a) args @ [ Arg_int tiny_n ];
            })
        ops;
  }

(* profile [p] on [c] and return the memo hits and misses it caused. A
   cached run holds no arena and ignores [layout]: it must equal the
   packed uncached run. *)
let memo_delta c ?layout p =
  let h0, m0 = memo_counts c in
  let run = M.profile ~cache:c ?layout Util.device p in
  let h1, m1 = memo_counts c in
  check_same_run p.p_name run (Profiler.profile Util.device p);
  (h1 - h0, m1 - m0)

(* the allocations (requests, cells) [f] made *)
let copies f =
  let s0 = Mem.Arenas.stats () in
  let x = f () in
  let s1 = Mem.Arenas.stats () in
  (x, (s1.requests - s0.requests, s1.cells_requested - s0.cells_requested))

let with_scalar c (p : program) =
  {
    p with
    p_schedule =
      List.map
        (function
          | Launch l when List.mem l.l_kernel [ "scale5"; "fill"; "tail" ] ->
              Launch { l with l_args = l.l_args @ [ Arg_double c ] }
          | op -> op)
        p.p_schedule;
  }

let test_memo_one_cell_misses () =
  let c = M.Sim_cache.create () in
  Alcotest.(check (pair int int)) "first copy misses" (0, 1)
    (memo_delta c (tiny ~name:"p1" [ ("copy", [ "A"; "B" ]) ]));
  (* scaling one cell by 1.0 leaves A bitwise unchanged: the copy replays *)
  Alcotest.(check (pair int int)) "unchanged input hits" (1, 1)
    (memo_delta c
       (with_scalar 1.0 (tiny ~name:"p2" [ ("scale5", [ "A" ]); ("copy", [ "A"; "B" ]) ])));
  (* flipping the sign of one cell of A makes the copy a miss *)
  Alcotest.(check (pair int int)) "one flipped cell misses" (0, 2)
    (memo_delta c
       (with_scalar (-1.0) (tiny ~name:"p3" [ ("scale5", [ "A" ]); ("copy", [ "A"; "B" ]) ])))

let test_memo_aliasing_misses () =
  let c = M.Sim_cache.create () in
  (* after the copy, A and B hold equal contents: addone(A, A) has the
     same content ids as addone(A, B) but another aliasing pattern *)
  Alcotest.(check (pair int int)) "k(A, B)" (0, 2)
    (memo_delta c (tiny ~name:"p1" [ ("copy", [ "A"; "B" ]); ("addone", [ "A"; "B" ]) ]));
  Alcotest.(check (pair int int)) "k(A, A) misses" (1, 1)
    (memo_delta c (tiny ~name:"p2" [ ("copy", [ "A"; "B" ]); ("addone", [ "A"; "A" ]) ]));
  Alcotest.(check (pair int int)) "k(A, A) again hits" (2, 0)
    (memo_delta c (tiny ~name:"p3" [ ("copy", [ "A"; "B" ]); ("addone", [ "A"; "A" ]) ]))

let test_memo_write_only () =
  let c = M.Sim_cache.create () in
  Alcotest.(check (pair int int)) "fill(A) on seeded A" (0, 2)
    (memo_delta c (with_scalar 2.0 (tiny ~name:"p1" [ ("fill", [ "A" ]); ("tail", [ "B" ]) ])));
  (* fill writes every cell of A and reads none: A's initial contents
     cannot matter, so it replays after A was overwritten. tail leaves
     B's first cell alone, so B's initial contents still count. *)
  Alcotest.(check (pair int int)) "fully overwritten argument is blanked" (1, 3)
    (memo_delta c
       (with_scalar 2.0
          (tiny ~name:"p2"
             [ ("copy", [ "C"; "A" ]); ("copy", [ "D"; "B" ]); ("fill", [ "A" ]); ("tail", [ "B" ]) ])));
  (* twice rewrites every cell of A but reads it: A's contents count *)
  Alcotest.(check (pair int int)) "twice(A) on seeded A" (0, 1)
    (memo_delta c (tiny ~name:"p3" [ ("twice", [ "A" ]) ]));
  Alcotest.(check (pair int int)) "a read argument is never blanked" (1, 1)
    (memo_delta c (tiny ~name:"p4" [ ("copy", [ "C"; "A" ]); ("twice", [ "A" ]) ]))

let test_memo_signed_zero () =
  let c = M.Sim_cache.create () in
  let fill a v =
    Launch
      {
        l_kernel = "fill";
        l_domain = (tiny_n, 1, 1);
        l_block = (64, 1, 1);
        l_args = [ Arg_array a; Arg_int tiny_n; Arg_double v ];
      }
  in
  let p = { (tiny []) with p_schedule = [ fill "A" (-0.0); fill "B" 0.0; fill "C" 0.0 ] } in
  let run = M.profile ~cache:c Util.device p in
  check_same_run "signed zeros" run (Profiler.profile Util.device p);
  match M.Sim_cache.final_ids c ~seed:42 Util.device p with
  | None -> Alcotest.fail "the run is cached"
  | Some ids ->
      let id a = List.assoc a ids in
      Alcotest.(check bool) "-0.0 and 0.0 contents have distinct ids" true (id "A" <> id "B");
      Alcotest.(check bool) "equal contents share an id" true (id "B" = id "C");
      Alcotest.(check bool) "seeded contents keep their own ids" true (id "D" <> id "B")

let test_memo_overlay () =
  let c = M.Sim_cache.create () in
  (* a packed run stores addone(B, D) with B at its seeded contents *)
  Alcotest.(check (pair int int)) "packed addone(B, D)" (0, 1)
    (memo_delta c (tiny ~name:"packed" [ ("addone", [ "B"; "D" ]) ]));
  (* A and B share a slot under this layout, B seeded last: an uncached
     run's write to A rewrites B. A cached run holds no arena, so the
     layout changes nothing: B keeps its seeded contents and the
     addone(B, D) that follows replays the packed entry *)
  let layout =
    {
      Mem.l_offsets = [ ("A", 0); ("B", 0); ("C", tiny_n); ("D", 2 * tiny_n) ];
      l_total = 3 * tiny_n;
      l_seed_order = [ "A"; "C"; "D"; "B" ];
    }
  in
  let p = tiny ~name:"overlay" [ ("copy", [ "C"; "A" ]); ("addone", [ "B"; "D" ]) ] in
  Alcotest.(check (pair int int)) "a write to A leaves B alone" (1, 1) (memo_delta c ~layout p);
  let run = M.profile ~cache:c ~layout Util.device p in
  Alcotest.(check int) "overlay program hit" 1 (M.Sim_cache.stats c).hits;
  check_same_run "overlay program hit" run (Profiler.profile Util.device p);
  let packed = M.profile ~cache:c Util.device p in
  let s = M.Sim_cache.stats c in
  Alcotest.(check (pair int int)) "the packed run is the same entry" (2, 2) (s.hits, s.size);
  Alcotest.(check bool) "the same final memory" true (Mem.bits_equal run.memory packed.memory);
  Alcotest.(check (pair int int)) "renamed overlay program replays" (2, 0)
    (memo_delta c ~layout { p with p_name = "overlay2" })

let test_memo_fission_prerun () =
  let p = (Kft_apps.Apps.bcalm ()).program in
  let plans =
    List.filter_map
      (fun k -> Option.map (fun pl -> (k.k_name, pl)) (Kft_fission.Fission.plan ~seed:42 k))
      p.p_kernels
  in
  let pf = Kft_fission.Fission.apply_to_program ~plans p in
  let layout = Kft_schedflow.Schedflow.arena_layout (Kft_schedflow.Schedflow.analyze pf) in
  let shares =
    match layout with
    | Some l -> l.l_total < List.fold_left (fun n a -> n + array_cells a) 0 pf.p_arrays
    | None -> false
  in
  Alcotest.(check bool) "the pre-run has an overlay layout" true shares;
  let c = M.Sim_cache.create () in
  ignore (M.gather ~cache:c Util.device p);
  let meta, run = M.gather ~cache:c ?layout Util.device pf in
  (* a gather without a cache runs on a fresh one: nothing to replay *)
  let meta', _ = M.gather ?layout Util.device pf in
  check_same_run "B-CALM fission pre-run" run (Profiler.profile Util.device pf);
  Alcotest.(check bool) "same metadata" true (meta = meta');
  let hits = (M.Sim_cache.stats c).hits in
  let _, packed = M.gather ~cache:c Util.device pf in
  Alcotest.(check int) "the packed pre-run is the same entry" (hits + 1) (M.Sim_cache.stats c).hits;
  Alcotest.(check bool) "the same final memory" true (Mem.bits_equal run.memory packed.memory)

(* Copy-on-write: a cached run copies only the arrays a missed launch
   may write, and a replayed launch or program copies nothing *)
let test_cow_copies () =
  let c = M.Sim_cache.create () in
  let p = tiny ~name:"c1" [ ("copy", [ "A"; "B" ]) ] in
  let delta, allocs = copies (fun () -> memo_delta c p) in
  Alcotest.(check (pair int int)) "copy(A, B) misses" (0, 1) delta;
  (* [memo_delta]'s uncached reference run is one arena of four arrays *)
  Alcotest.(check (pair int int)) "one private copy, of B's cells" (2, tiny_n + (4 * tiny_n)) allocs;
  let _, allocs = copies (fun () -> M.profile ~cache:c Util.device { p with p_name = "c2" }) in
  Alcotest.(check (pair int int)) "a memo hit copies nothing" (0, 0) allocs;
  Alcotest.(check (pair int int)) "it was a memo hit" (1, 1) (memo_counts c);
  let run, allocs = copies (fun () -> M.profile ~cache:c Util.device p) in
  Alcotest.(check (pair int int)) "a program hit copies nothing" (0, 0) allocs;
  Alcotest.(check int) "it was a program hit" 1 (M.Sim_cache.stats c).hits;
  check_same_run "program hit" run (Profiler.profile Util.device p);
  (* the caller's write goes to its own copy, never to the store, and
     the copy takes no cells of the store's slab *)
  let used = M.Sim_cache.Internal.slab_used c in
  (Mem.get run.memory "B").{0} <- -999.0;
  Alcotest.(check (list string)) "the store is intact" [] (M.Sim_cache.Internal.check_store c);
  Alcotest.(check int) "the caller's copy is outside the slab" used
    (M.Sim_cache.Internal.slab_used c);
  check_same_run "after a caller's write" (M.profile ~cache:c Util.device p)
    (Profiler.profile Util.device p)

let test_cow_same_host () =
  let c = M.Sim_cache.create () in
  (* addone(A, A) reads A through one parameter and writes it through
     the other: both must see the one private copy *)
  let p =
    tiny ~name:"aa" [ ("copy", [ "C"; "A" ]); ("addone", [ "A"; "A" ]); ("addone", [ "A"; "B" ]) ]
  in
  let delta, (requests, _) = copies (fun () -> memo_delta c p) in
  Alcotest.(check (pair int int)) "three misses" (0, 3) delta;
  (* A twice, B once, plus the reference run's arena *)
  Alcotest.(check int) "one copy per written host and launch" 4 requests;
  Alcotest.(check (list string)) "the store is intact" [] (M.Sim_cache.Internal.check_store c)

let test_cow_raising_launch () =
  let c = M.Sim_cache.create () in
  let p = tiny ~name:"before" [ ("copy", [ "C"; "D" ]) ] in
  ignore (memo_delta c p);
  (* oob writes C in place until its last thread leaves the array *)
  (match M.profile ~cache:c Util.device (tiny [ ("twice", [ "C" ]); ("oob", [ "C" ]) ]) with
  | (_ : Profiler.run) -> Alcotest.fail "expected Sim_error"
  | exception Kft_sim.Interp.Sim_error _ -> ());
  Alcotest.(check (list string)) "every stored content unchanged" []
    (M.Sim_cache.Internal.check_store c);
  check_same_run "a program hit after the failure" (M.profile ~cache:c Util.device p)
    (Profiler.profile Util.device p)

let test_memo_raising_launch () =
  let c = M.Sim_cache.create () in
  let p = tiny [ ("copy", [ "A"; "B" ]); ("oob", [ "C" ]) ] in
  let attempt () =
    match M.profile ~cache:c Util.device p with
    | (_ : Profiler.run) -> Alcotest.fail "expected Sim_error"
    | exception Kft_sim.Interp.Sim_error { kernel; message } -> (kernel, message)
  in
  let e1 = attempt () in
  let e2 = attempt () in
  Alcotest.(check (pair string string)) "the same error again" e1 e2;
  Alcotest.(check (pair int int)) "the raising launch is never a hit" (1, 3) (memo_counts c);
  Alcotest.(check int) "no program entry" 0 (M.Sim_cache.stats c).size

(* Store integrity across whole transforms: each program is transformed
   automated, then programmer-guided on the same cache (fission
   pre-runs included), and after every transform each stored content
   still hashes to the value it was interned under and each seeded
   content is still its pattern. A write that leaked into a store
   buffer fails here. *)
let test_store_integrity () =
  let module F = Kft_framework.Framework in
  let module Apps = Kft_apps.Apps in
  let big = { Kft_apps.Gen.nx = 256; ny = 64; nz = 12 } in
  let runs =
    List.map (fun a -> (a, 10, 8, F.default_config.verify_mode)) (Apps.quickstart () :: Apps.all ())
    @ List.map
        (fun a -> (a, 4, 6, F.Verify_off))
        [ Apps.mitgcm ~dims:big (); Apps.bcalm ~dims:big () ]
  in
  List.iter
    (fun ((app : Apps.app), generations, population, verify_mode) ->
      let c = M.Sim_cache.create () in
      let config =
        {
          F.default_config with
          gga_params = { Kft_gga.Gga.default_params with generations; population };
          verify_mode;
          sim_cache = Some c;
        }
      in
      let check what =
        Alcotest.(check (list string))
          (Printf.sprintf "%s (%s): the store is intact" app.app_name what)
          [] (M.Sim_cache.Internal.check_store c)
      in
      let r = F.transform ~config app.program in
      check "automated";
      let hooks = { F.no_hooks with amend_solution = (fun _ -> r.F.solution_groups) } in
      let guided =
        {
          config with
          codegen_options = { Kft_codegen.Fusion.manual_options with tune_blocks = true };
        }
      in
      ignore (F.transform ~config:guided ~hooks app.program);
      check "guided")
    runs

let suite =
  [
    Alcotest.test_case "gather produces entries" `Quick test_gather_entries;
    Alcotest.test_case "profile cache replay" `Quick test_profile_cache_replay;
    Alcotest.test_case "profile cache keyed by seed" `Quick test_profile_cache_distinguishes_seed;
    Alcotest.test_case "profile cache replays snapshots" `Quick test_sim_cache_replay;
    Alcotest.test_case "shared arrays detected" `Quick test_shared_arrays_detected;
    Alcotest.test_case "operations fields" `Quick test_ops_fields;
    Alcotest.test_case "performance text roundtrip" `Quick test_perf_text_roundtrip;
    Alcotest.test_case "operations text roundtrip" `Quick test_ops_text_roundtrip;
    Alcotest.test_case "text is amendable" `Quick test_amendable_text;
    Alcotest.test_case "files roundtrip" `Quick test_files_roundtrip;
    Alcotest.test_case "malformed text rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "memo on/off bit-identical: apps and transforms" `Slow
      test_memo_apps_bit_identical;
    Alcotest.test_case "memo: block-retuned launches replay like fresh runs" `Slow
      test_memo_retuned_replays;
    QCheck_alcotest.to_alcotest prop_memo_fuzz;
    Alcotest.test_case "memo: one flipped input cell misses" `Quick test_memo_one_cell_misses;
    Alcotest.test_case "memo: k(A, A) and k(A, B) differ" `Quick test_memo_aliasing_misses;
    Alcotest.test_case "memo: write-only full overwrite replays" `Quick test_memo_write_only;
    Alcotest.test_case "memo: -0.0 and 0.0 get distinct ids" `Quick test_memo_signed_zero;
    Alcotest.test_case "memo: an overlay layout is the packed entry" `Quick test_memo_overlay;
    Alcotest.test_case "memo: B-CALM fission pre-run on and off" `Quick test_memo_fission_prerun;
    Alcotest.test_case "memo: a raising launch is not stored" `Quick test_memo_raising_launch;
    Alcotest.test_case "cow: one copy of the written array, none on hits" `Quick test_cow_copies;
    Alcotest.test_case "cow: one host read and written by one launch" `Quick test_cow_same_host;
    Alcotest.test_case "cow: a raising launch leaves the store intact" `Quick
      test_cow_raising_launch;
    Alcotest.test_case "cow: the store is intact after every transform" `Slow test_store_integrity;
  ]
