(* Differential-fuzzing battery over randomly generated well-formed
   stencil kernel chains (Util.fuzz_sample_arb).

   Property 1: the frontend and unparser agree — every fuzzed kernel
   survives a print/parse round-trip structurally unchanged.

   Property 2: the simulator's execution strategies agree — the
   compiled-affine fast path ([affine:true]) and the block-parallel
   engine path (jobs=4) reproduce the plain interpreter's memory and
   launch statistics bit for bit on every fuzzed program and on its
   [Framework.transform] output, whose fused kernels stage shared tiles
   around barriers.

   Property 3: codegen's block retunes keep what a fuzzed program
   computes; a third of the samples launch over a domain smaller than
   their arrays, where a wider block must be refused. *)

open Kft_cuda.Ast
module Interp = Kft_sim.Interp
module Memory = Kft_sim.Memory
module Engine = Kft_engine.Engine

(* one pool shared by all differential cases (spawning domains per
   QCheck case would dominate the runtime); shut down at exit *)
let shared_engine =
  lazy
    (let e = Engine.create ~jobs:4 ~memo:false () in
     at_exit (fun () -> Engine.shutdown e);
     e)

let run ?engine ~affine (p : program) =
  let mem = Memory.create p.p_arrays in
  Memory.init_seeded mem ~seed:7;
  let runs = Interp.run_schedule ?engine ~affine mem p in
  (mem, List.map snd runs)

let prop_roundtrip =
  QCheck.Test.make ~name:"fuzzed kernels survive a print/parse round-trip" ~count:150
    Util.fuzz_sample_arb
    (fun s ->
      let ks = s.Util.fz_program.p_kernels in
      let ks' = Kft_cuda.Parse.kernels (Kft_cuda.Pp.kernels ks) in
      List.length ks = List.length ks' && List.for_all2 equal_kernel ks ks')

(* the fuzzed chain fused by the whole pipeline: its fused kernels stage
   shared tiles around barriers *)
let transformed (p : program) =
  let module F = Kft_framework.Framework in
  let config =
    {
      F.default_config with
      gga_params = { Kft_gga.Gga.default_params with generations = 2; population = 6 };
      verify_mode = F.Verify_off;
    }
  in
  (F.transform ~config p).transformed

let prop_differential =
  QCheck.Test.make
    ~name:"interpret / compiled-affine / block-parallel simulations are bit-identical"
    ~count:120 Util.fuzz_sample_arb
    (fun s ->
      List.for_all
        (fun p ->
          let ref_mem, ref_stats = run ~affine:false p in
          List.for_all
            (fun (engine, affine) ->
              let mem, stats = run ?engine ~affine p in
              Memory.bits_equal ref_mem mem && stats = ref_stats)
            [
              (None, true);
              (Some (Lazy.force shared_engine), false);
              (Some (Lazy.force shared_engine), true);
            ])
        [ s.Util.fz_program; transformed s.Util.fz_program ])

(* Codegen retunes each fuzzed launch on its own. Over a domain smaller
   than the arrays, a wider block would write cells the source never
   wrote, so such a retune must be refused; whatever codegen emits must
   simulate to the source's memory and stats (up to [blocks_launched]
   where the block changed). Sixty samples from a fixed seed, which
   must include refused retunes and kept ones. *)
let test_retunes_keep_outputs () =
  let rand = Random.State.make [| 7 |] in
  let refused = ref 0 and kept = ref 0 in
  List.iter
    (fun s ->
      let p = s.Util.fz_program in
      let launches = List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule in
      let cg = Kft_codegen.Codegen.transform Util.device p ~groups:(List.map (fun l -> [ l ]) launches) in
      List.iter2
        (fun (r : Kft_codegen.Codegen.kernel_report) (l : launch) ->
          if List.exists (String.starts_with ~prefix:"kept block") r.notes then incr refused;
          if r.tuned then incr kept;
          if r.tuned && not (Kft_analysis.Absint.block_invariant p l ~block:r.block) then
            Alcotest.failf "%s: unproved retune kept\n%s" l.l_kernel (Util.fuzz_sample_print s))
        cg.reports launches;
      let mem, stats = run ~affine:true p and mem', stats' = run ~affine:true cg.program in
      let same (a : Interp.stats) (b : Interp.stats) =
        { a with blocks_launched = 0 } = { b with blocks_launched = 0 }
      in
      if not (Memory.bits_equal mem mem' && List.for_all2 same stats stats') then
        Alcotest.failf "retuned program differs\n%s" (Util.fuzz_sample_print s))
    (QCheck.Gen.generate ~rand ~n:60 Util.fuzz_sample_gen);
  Alcotest.(check bool) "some retune was refused" true (!refused > 0);
  Alcotest.(check bool) "some retune was kept" true (!kept > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "codegen retunes keep fuzzed outputs" `Quick test_retunes_keep_outputs;
  ]
