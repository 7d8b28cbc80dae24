(** End-to-end transformation pipeline (Section 3, Figure 1).

    The five stages — metadata gathering, target identification, DDG/OEG
    construction, GGA search, code generation — run in sequence; after
    each stage the programmer can intervene through the [hooks], exactly
    mirroring the paper's programmer-guided transformation (Figure 2).
    Each stage's intermediate results are part of the {!report} so a
    caller (or the CLI) can stop after any stage, dump the text files /
    DOT graphs, and resume from amended versions. *)

type filter_mode =
  | Automated  (** Roofline + boundary filtering (Section 3.2.2) *)
  | Manual  (** expert filtering: additionally drops latency-bound kernels (Figure 8) *)
  | No_filtering  (** ablation: everything is a target (2.5x slower convergence claim) *)

type verify_mode =
  | Verify_off  (** skip static verification entirely *)
  | Verify_advisory
      (** run [Kft_verify] after code generation and record the report
          (the default) *)
  | Verify_fatal
      (** additionally reject any fused kernel carrying a diagnostic:
          its group is split back into singletons and code generation
          re-runs (bounded), so the transformed program ships without
          statically detected races / bounds / order violations *)

type config = {
  device : Kft_device.Device.t;
  gga_params : Kft_gga.Gga.params;
  codegen_options : Kft_codegen.Fusion.options;
  filter_mode : filter_mode;
  verify_mode : verify_mode;
  seed : int;
  verify_tolerance : float;
  sim_cache : Kft_metadata.Metadata.Sim_cache.t option;
      (** the content-addressed simulation cache every simulation of the
          transform goes through (gathering, the fissioned-variant run
          and the transformed run, each launch by launch through its
          launch memo), also used by output verification's comparison.
          [None] means a fresh cache private to this transform; pass
          [Some c] to share [c] with other transforms, e.g. an
          automated pass and the guided re-run after it. *)
  backend : Kft_sim.Interp.backend;
      (** simulator execution path for those runs. Both paths are
          bit-identical, so this only affects pipeline wall time; the
          default is the compiled-affine path, {!Kft_sim.Interp.Affine}. *)
}

val default_config : config
(** K20X, the paper's GGA defaults, automated codegen, automated
    filtering, advisory static verification, a private simulation cache
    per transform ([sim_cache = None]) and the compiled-affine execution
    path ({!Kft_sim.Interp.Affine}). *)

type hooks = {
  amend_metadata : Kft_metadata.Metadata.t -> Kft_metadata.Metadata.t;
  amend_targets : (string * bool) list -> (string * bool) list;
      (** (invocation key, eligible) pairs *)
  amend_solution : string list list -> string list list;
      (** fusion groups over unit names, after the GGA *)
}

val no_hooks : hooks

type target_info = {
  invocation : Kft_ddg.Ddg.invocation;
  classification : Kft_analysis.Classify.kind;
  eligible : bool;
  reason : string;  (** why it was kept/excluded — part of the stage report *)
}

type report = {
  baseline : Kft_sim.Profiler.run;
  metadata : Kft_metadata.Metadata.t;
  graphs : Kft_ddg.Ddg.t;  (** DDG / OEG of the source, derived from [schedflow] *)
  schedflow : Kft_schedflow.Schedflow.t;
      (** whole-schedule dataflow analysis of the source program
          (liveness intervals, dependences, read-before-write /
          dead-store issues) *)
  targets : target_info list;
  fission_plans : (string * Kft_fission.Fission.plan) list;
      (** lazy-fission pre-step: plan per fissionable target kernel *)
  gga : Kft_gga.Gga.result option;  (** [None] when fewer than two targets *)
  solution_groups : string list list;
  fissioned : string list;
  codegen : Kft_codegen.Codegen.result;
  transformed : Kft_cuda.Ast.program;
  transformed_run : Kft_sim.Profiler.run;
  speedup : float;
  verified : (unit, (string * float) list) result;
  verify_report : Kft_verify.Verify.report;
      (** static verification of the emitted kernels plus translation
          validation of every fused group ({!Kft_verify.Verify.validate});
          {!Kft_verify.Verify.empty_report} when [verify_mode] is
          {!Verify_off} *)
  lint_findings : Kft_absint.Lint.finding list;
      (** [kft lint] over the emitted program, with the measured
          per-kernel global traffic of [transformed_run] feeding the
          footprint-drift cross-check; always computed (cheap, pure) *)
  rejected_groups : (string * string) list;
      (** (fused kernel, reason) pairs for groups the fatal gate split
          back into singletons; always [] outside {!Verify_fatal} *)
  sim_cache_stats : Kft_engine.Engine.Cache.stats option;
      (** profile-cache hits/misses attributable to this transform ([size]
          is the cache's total entry count afterwards); always [Some] *)
  launch_memo_stats : Kft_metadata.Metadata.Sim_cache.memo_stats;
      (** launch-memo hits/misses, hashed cells and interning time
          attributable to this transform (the content counts are the
          cache's totals afterwards) *)
  pool_stats : Kft_sim.Memory.Arenas.stats;
      (** arena allocation accounting for this transform: requests and
          cells are deltas over the run; [high_water] is the
          process-wide peak of live cells *)
  trace : Kft_trace.Trace.t option;
      (** the trace handed to {!transform}, echoed back so callers can
          render it next to the report; [None] when tracing was off *)
}

val transform :
  ?config:config -> ?hooks:hooks -> ?engine:Kft_engine.Engine.t ->
  ?trace:Kft_trace.Trace.t ->
  Kft_cuda.Ast.program -> report
(** Run the full pipeline. The transformed program's output is verified
    against the original on the simulator (the paper verified every
    run) by comparing the final memories of the baseline and
    transformed runs; [speedup] is original/transformed modeled time.

    [engine] parallelizes two phases over its domain pool: the GGA
    search (stage 4) evaluates each generation's population in parallel
    with its memoization policy deciding whether identical genomes are
    re-scored (see {!Kft_engine.Engine} and [Gga.run ?engine]), and
    every simulation the pipeline runs — metadata gathering, the
    fissioned-variant run and the transformed run — executes its
    thread blocks in parallel ([Interp.launch ?engine]).
    Both are deterministic: the search result, the profiles and the
    simulated memory — and therefore the whole transformation — are
    bit-identical at any worker count. Defaults to sequential evaluation
    with the memo cache enabled. A caller-supplied engine is not shut
    down.

    [trace] records the pipeline under deterministic stage spans
    ([gather], [ddg], [schedflow], [filter], [fission], [search],
    [codegen], [verify], [profile-transformed], [output-verify],
    [lint]) with
    per-stage counters; jobs-dependent quantities (plan-cache hit/miss
    split, engine pool statistics) are recorded as side-channel notes
    only, so {!Kft_trace.Trace.render_json} stays byte-identical at any
    worker count. The [stage_report] appends the rendered tree when the
    report carries a trace. *)

val stage_report : report -> string
(** Human-readable multi-stage report (the "report on the output of each
    phase including hints of possible inefficiencies"). *)
