open Kft_cuda.Ast
module Ddg = Kft_ddg.Ddg
module Meta = Kft_metadata.Metadata
module Gga = Kft_gga.Gga
module Fission = Kft_fission.Fission
module Perfmodel = Kft_perfmodel.Perfmodel
module Codegen = Kft_codegen.Codegen
module Fusion = Kft_codegen.Fusion
module Canonical = Kft_codegen.Canonical
module Classify = Kft_analysis.Classify
module Verify = Kft_verify.Verify
module Schedflow = Kft_schedflow.Schedflow
module Trace = Kft_trace.Trace

type filter_mode = Automated | Manual | No_filtering

type verify_mode = Verify_off | Verify_advisory | Verify_fatal

type config = {
  device : Kft_device.Device.t;
  gga_params : Gga.params;
  codegen_options : Fusion.options;
  filter_mode : filter_mode;
  verify_mode : verify_mode;
  seed : int;
  verify_tolerance : float;
  sim_cache : Meta.Sim_cache.t option;
  backend : Kft_sim.Interp.backend;
}

let default_config =
  {
    device = Kft_device.Device.k20x;
    gga_params = Gga.default_params;
    codegen_options = Fusion.auto_options;
    filter_mode = Automated;
    verify_mode = Verify_advisory;
    seed = 42;
    verify_tolerance = 1e-9;
    sim_cache = None;
    backend = Kft_sim.Interp.Affine;
  }

type hooks = {
  amend_metadata : Meta.t -> Meta.t;
  amend_targets : (string * bool) list -> (string * bool) list;
  amend_solution : string list list -> string list list;
}

let no_hooks =
  {
    amend_metadata = (fun m -> m);
    amend_targets = (fun t -> t);
    amend_solution = (fun s -> s);
  }

type target_info = {
  invocation : Ddg.invocation;
  classification : Classify.kind;
  eligible : bool;
  reason : string;
}

type report = {
  baseline : Kft_sim.Profiler.run;
  metadata : Meta.t;
  graphs : Ddg.t;
  schedflow : Schedflow.t;
  targets : target_info list;
  fission_plans : (string * Fission.plan) list;
  gga : Gga.result option;
  solution_groups : string list list;
  fissioned : string list;
  codegen : Codegen.result;
  transformed : program;
  transformed_run : Kft_sim.Profiler.run;
  speedup : float;
  verified : (unit, (string * float) list) result;
  verify_report : Verify.report;
  lint_findings : Kft_absint.Lint.finding list;
  rejected_groups : (string * string) list;
  sim_cache_stats : Kft_engine.Engine.Cache.stats option;
  launch_memo_stats : Meta.Sim_cache.memo_stats;
  pool_stats : Kft_sim.Memory.Arenas.stats;
  trace : Trace.t option;
}

exception Output_mismatch of (string * float) list

(* ------------------------------------------------------------------ *)
(* Target identification                                               *)
(* ------------------------------------------------------------------ *)

(* largest array the invocation reads or writes: its DDG neighbours *)
let max_array_cells prog (graphs : Ddg.t) (inv : Ddg.invocation) =
  List.fold_left
    (fun acc k ->
      match Kft_graph.Digraph.payload graphs.ddg k with
      | Ddg.Array_node { base; _ } -> max acc (array_cells (find_array prog base))
      | Ddg.Kernel_node _ -> acc)
    0
    (Kft_graph.Digraph.preds graphs.ddg inv.inv_key
    @ Kft_graph.Digraph.succs graphs.ddg inv.inv_key)

let classify_invocation config (meta : Meta.t) prog graphs (inv : Ddg.invocation) =
  let perf = Meta.find_perf meta inv.inv_kernel in
  let ops = Meta.find_ops meta inv.inv_kernel in
  let dx, dy, dz = ops.domain in
  (* spatial coverage includes the vertical loop the canonical mapping
     iterates inside the kernel *)
  let vertical_trip =
    List.fold_left (fun acc (l : Meta.loop_op) -> if l.vertical then max acc l.trip else acc) 1
      ops.loops
  in
  let device = config.device and flops = perf.flops and bytes = perf.bytes in
  let domain_cells = dx * dy * dz * vertical_trip in
  let max_array_cells = max_array_cells prog graphs inv in
  let active_fraction = ops.active_fraction in
  match config.filter_mode with
  | No_filtering -> Classify.Memory_bound
  | Automated ->
      Classify.classify_static ~device ~flops ~bytes ~domain_cells ~max_array_cells
        ~active_fraction
  | Manual ->
      Classify.classify_measured ~device ~flops ~bytes ~domain_cells ~max_array_cells
        ~active_fraction ~runtime_us:perf.runtime_us

let identify config meta prog graphs (inv : Ddg.invocation) =
  let classification = classify_invocation config meta prog graphs inv in
  let ops = Meta.find_ops meta inv.inv_kernel in
  let repeated = String.contains inv.inv_key '#' in
  let eligible, reason =
    if repeated then (false, "repeated invocation of an already-targeted kernel")
    else
      match (classification, ops.irregular) with
      | _, Some r -> (false, "irregular: " ^ r)
      | Classify.Compute_bound, _ -> (false, "compute-bound (Roofline)")
      | Classify.Boundary, _ -> (false, "boundary kernel (small iteration coverage)")
      | Classify.Latency_bound, _ -> (false, "latency-bound (low achieved bandwidth)")
      | Classify.Memory_bound, _ -> (true, "memory-bound target")
  in
  { invocation = inv; classification; eligible; reason }

(* ------------------------------------------------------------------ *)
(* Pipeline stages                                                     *)
(* ------------------------------------------------------------------ *)

(* what every stage reads: the settings, the one simulation cache every
   simulation of the transform goes through, the engine and the trace *)
type env = {
  config : config;
  cache : Meta.Sim_cache.t;
  engine : Kft_engine.Engine.t option;
  trace : Trace.t option;
}

let gather_meta env prog =
  Meta.gather ~cache:env.cache ?engine:env.engine ~backend:env.config.backend ?trace:env.trace
    ~seed:env.config.seed env.config.device prog

(* stage 1: metadata (simulation runs go through the profile cache, so
   re-transforming a program — or verifying against it later — replays
   the stored run instead of re-simulating) *)
let gather env prog =
  Trace.with_span env.trace "gather" (fun () ->
      let meta, baseline = gather_meta env prog in
      Trace.add env.trace "kernels" (List.length meta.Meta.performance);
      (meta, baseline))

(* stage 2/3 graphs: one whole-schedule dataflow analysis yields both the
   invocation DDG / OEG and the element-region schedule DDG, liveness and
   issues reported under "schedflow" *)
let analyze env prog =
  let trace = env.trace in
  let graphs, schedflow =
    Trace.with_span trace "ddg" (fun () ->
        let sf = Schedflow.analyze prog in
        let g = Ddg.of_schedflow sf in
        Trace.add trace "ddg_nodes" (Kft_graph.Digraph.node_count g.Ddg.ddg);
        Trace.add trace "ddg_edges" (Kft_graph.Digraph.edge_count g.Ddg.ddg);
        Trace.add trace "oeg_nodes" (Array.length g.Ddg.oeg);
        Trace.add trace "oeg_edges" (Ddg.oeg_edge_count g);
        (g, sf))
  in
  Trace.with_span trace "schedflow" (fun () ->
      let s = schedflow.Schedflow.stats in
      Trace.add trace "ops" s.Schedflow.st_ops;
      Trace.add trace "launches" s.st_launches;
      Trace.add trace "deps" s.st_deps;
      Trace.add trace "deps_refined" s.st_deps_refined;
      Trace.add trace "regions_proved" s.st_regions_proved;
      Trace.add trace "regions_fallback" s.st_regions_fallback;
      Trace.add trace "issues" (List.length schedflow.issues));
  (graphs, schedflow)

(* stage 2 targets: classification, then the programmer's amendments *)
let filter env hooks meta prog (graphs : Ddg.t) =
  Trace.with_span env.trace "filter" (fun () ->
      let targets0 = List.map (identify env.config meta prog graphs) graphs.invocations in
      let amended =
        hooks.amend_targets (List.map (fun t -> (t.invocation.inv_key, t.eligible)) targets0)
      in
      let targets =
        List.map
          (fun t ->
            match List.assoc_opt t.invocation.inv_key amended with
            | Some e when e <> t.eligible ->
                { t with eligible = e; reason = t.reason ^ " (amended by programmer)" }
            | _ -> t)
          targets0
      in
      let eligible = List.filter (fun t -> t.eligible) targets in
      Trace.add env.trace "invocations" (List.length targets);
      Trace.add env.trace "targets" (List.length eligible);
      (targets, eligible))

(* lazy-fission pre-step: plans + one profiled run of the fully
   fissioned variant to collect part metadata (Section 4.1). A plan
   with a [Fission.name_clash] is dropped: it could not be applied. *)
let fission env prog eligible =
  Trace.with_span env.trace "fission" (fun () ->
      let plans =
        if not env.config.gga_params.fission_enabled then []
        else
          List.filter_map
            (fun t ->
              let k = find_kernel prog t.invocation.inv_kernel in
              match Fission.plan ~seed:env.config.seed k with
              | Some p when Fission.name_clash prog p = None -> Some (k.k_name, p)
              | _ -> None)
            eligible
      in
      let fissioned =
        if plans = [] then None
        else begin
          let sf = Schedflow.analyze (Fission.apply_to_program ~plans prog) in
          (* only the metadata survives this pre-step; the run's memory
             holds no cells of its own *)
          let m, _ = gather_meta env sf.program in
          Some (sf, m)
        end
      in
      Trace.add env.trace "plans" (List.length plans);
      (plans, fissioned))

(* A search unit is a source invocation or a fission part. *)
type unit_row = {
  u_name : string;  (* invocation key, or the part's kernel name *)
  u_original : int;  (* the invocation the unit is, or whose plan made the part *)
  u_member : (Canonical.member, string) Stdlib.result;
      (* canonical form, for codegen-level feasibility; targets and parts only *)
  u_model : Perfmodel.unit_model option;  (* targets and parts only *)
  u_arrays : string list;  (* host arrays a part touches; [] for an invocation *)
}

(* every unit once, by dense id: invocation [i] is unit [i], the parts
   follow in plan order. A unit's schedule position is (its original
   invocation, its id): a part sits right after the invocation it
   splits. The search runs on these ids; [ids] maps the named groups it
   returns back to them for the schedule. *)
type units = {
  rows : unit_row array;
  ids : (string, int) Hashtbl.t;
  parts : int list array;  (* per invocation, its parts; [] without a plan *)
}

let unit_table env meta prog targets plans fissioned =
  let extract prog launch =
    match
      Canonical.extract ~deep:env.config.codegen_options.deep_nest_strategy ~index:0 prog launch
    with
    | m -> Ok m
    | exception Canonical.Not_canonical reason -> Error reason
  in
  let invocation_row { invocation = inv; eligible; _ } =
    {
      u_name = inv.inv_key;
      u_original = inv.inv_index;
      u_member = (if eligible then extract prog inv.inv_launch else Error "not a search target");
      u_model = (if eligible then Some (Perfmodel.of_metadata meta inv.inv_kernel) else None);
      u_arrays = [];
    }
  in
  let part_rows { invocation = inv; _ } =
    match (List.assoc_opt inv.inv_key plans, fissioned) with
    | Some (plan : Fission.plan), Some ((sf : Schedflow.t), mf) ->
        List.map
          (fun ((part : Fission.part), launch) ->
            let member = extract sf.program launch in
            {
              u_name = part.part_kernel.k_name;
              u_original = inv.inv_index;
              u_member = member;
              u_model = Some (Perfmodel.of_metadata mf part.part_kernel.k_name);
              u_arrays =
                (match member with
                | Ok m -> Canonical.touched_arrays m
                | Error _ -> part.part_arrays);
            })
          (List.combine plan.parts (Fission.split_launch plan.original plan inv.inv_launch))
    | _ -> []
  in
  let rows = Array.of_list (List.map invocation_row targets @ List.concat_map part_rows targets) in
  let n_inv = List.length targets in
  let ids = Hashtbl.create (Array.length rows) in
  Array.iteri (fun u r -> Hashtbl.replace ids r.u_name u) rows;
  let parts = Array.make n_inv [] in
  for u = Array.length rows - 1 downto n_inv do
    let i = rows.(u).u_original in
    parts.(i) <- u :: parts.(i)
  done;
  { rows; ids; parts }

(* the one contraction of the OEG, for the search and the schedule:
   nodes sharing a label become one quotient node, numbered by the
   label's first occurrence, and Kahn's algorithm emits the lowest ready
   quotient node first (see [Internal.contract] in the interface) *)
let contract succs label =
  let q_of_label = Array.make (Array.fold_left max (-1) label + 1) (-1) and nq = ref 0 in
  let q =
    Array.map
      (fun l ->
        if q_of_label.(l) < 0 then begin
          q_of_label.(l) <- !nq;
          incr nq
        end;
        q_of_label.(l))
      label
  in
  let nq = !nq in
  let members = Array.make nq [] and qsuccs = Array.make nq [] and indeg = Array.make nq 0 in
  for v = Array.length succs - 1 downto 0 do
    let a = q.(v) in
    members.(a) <- v :: members.(a);
    List.iter
      (fun s ->
        let b = q.(s) in
        if a <> b then begin
          qsuccs.(a) <- b :: qsuccs.(a);
          indeg.(b) <- indeg.(b) + 1
        end)
      succs.(v)
  done;
  (* [ready.(a)]: [a] is not emitted yet and all its predecessors are;
     every ready node is at [lo] or above *)
  let ready = Array.map (fun d -> d = 0) indeg in
  let release lo b =
    indeg.(b) <- indeg.(b) - 1;
    if indeg.(b) > 0 then lo
    else begin
      ready.(b) <- true;
      min lo b
    end
  in
  let rec emit order left lo =
    if lo = nq then if left = 0 then Some (List.rev order) else None
    else if not ready.(lo) then emit order left (lo + 1)
    else begin
      ready.(lo) <- false;
      emit (members.(lo) :: order) (left - 1) (List.fold_left release (lo + 1) qsuccs.(lo))
    end
  in
  emit [] nq 0

(* the contraction label of every unit: the index of the last group
   holding it, or its own label past the group range *)
let unit_labels units groups =
  let n_groups = List.length groups in
  let label = Array.init (Array.length units.rows) (fun u -> n_groups + u) in
  List.iteri (fun g us -> List.iter (fun u -> label.(u) <- g) us) groups;
  label

(* stage 4's problem: the GGA over the unit table's targets and parts,
   by unit id. Every callback is keyed by ids; [plan_cache] holds one
   fusion plan per distinct set of units the search asks about. *)
let problem env (graphs : Ddg.t) units plan_cache =
  let row u = units.rows.(u) in
  let model u = Option.get (row u).u_model in
  (* groups coming out of the GGA are unordered, while fusion
     feasibility and codegen are order-sensitive: members go in schedule
     order. The search runs in this domain, so the cache needs no lock. *)
  let pos u = ((row u).u_original, u) in
  let group_plan g =
    let members = List.sort (fun a b -> compare (pos a) (pos b)) g in
    match Gga.Groups.find_opt plan_cache members with
    | Some r -> r
    | None ->
        let rec check acc = function
          | [] ->
              Fusion.check_group
                (List.mapi (fun i (m : Canonical.member) -> { m with m_index = i }) (List.rev acc))
          | u :: rest -> Result.bind (row u).u_member (fun m -> check (m :: acc) rest)
        in
        let r = check [] members in
        Gga.Groups.replace plan_cache members r;
        r
  in
  (* OEG feasibility sees a fission part as the invocation its plan split *)
  let feasible = function
    | [] | [ _ ] -> true
    | g ->
        Ddg.fusion_feasible graphs (List.map (fun u -> (row u).u_original) g)
        && Result.is_ok (group_plan g)
  in
  let shared_ok = function
    | [] | [ _ ] -> true
    | first :: _ as g -> (
        match group_plan g with
        | Ok plan ->
            let bx, by, _ = (model first).block in
            plan.p_shared_bytes bx by <= env.config.device.shared_mem_per_block
        | Error _ -> true)
  in
  (* joint schedulability: the units present in a solution (parts
     replace their fissioned original) inherit the OEG edges of their
     invocations; contracting every group at once must leave them
     acyclic. The successors are built once, over every unit: each links
     to all units of its invocation's OEG successors. An absent unit
     takes the label of a present unit of its own invocation, whose
     edges it repeats, so it adds no quotient edge. *)
  let n_inv = Array.length units.parts and n_units = Array.length units.rows in
  let succs =
    let below = Array.map (List.concat_map (fun j -> j :: units.parts.(j))) graphs.oeg in
    Array.init n_units (fun u -> below.((row u).u_original))
  in
  let solution_feasible ~groups ~fissioned =
    let label = unit_labels units groups in
    Array.iteri
      (fun i ps ->
        match ps with
        | p :: _ when List.exists (Int.equal i) fissioned -> label.(i) <- label.(p)
        | ps -> List.iter (fun p -> label.(p) <- label.(i)) ps)
      units.parts;
    Option.is_some (contract succs label)
  in
  {
    Gga.model;
    units = List.filter (fun i -> Option.is_some (row i).u_model) (List.init n_inv Fun.id);
    fission_parts =
      List.filter_map
        (fun i -> match units.parts.(i) with [] -> None | ps -> Some (i, ps))
        (List.init n_inv Fun.id);
    part_arrays = List.init (n_units - n_inv) (fun p -> (n_inv + p, (row (n_inv + p)).u_arrays));
    feasible;
    solution_feasible;
    eval_group = (fun g -> Perfmodel.eval_group env.config.device (List.map model g));
    shared_ok;
  }

(* stage 4: the GGA search; returns the search result and its best
   solution, named (the targets as singletons when there was nothing to
   search) *)
let search env graphs units =
  let plan_cache = Gga.Groups.create 256 in
  let problem = problem env graphs units plan_cache in
  let targets = problem.units in
  let trace = env.trace in
  Trace.with_span trace "search" (fun () ->
      let r =
        if List.length targets >= 2 then
          Some (Gga.run ?engine:env.engine ?trace env.config.gga_params problem)
        else None
      in
      Trace.add trace "units" (List.length targets);
      (match r with
      | Some g ->
          let es = g.Gga.engine_stats in
          Trace.add trace "memo_requested" es.Gga.es_requested;
          Trace.add trace "memo_computed" es.Gga.es_computed;
          Trace.set trace "memo" (Trace.Bool es.Gga.es_memo);
          Trace.note trace "jobs" (Trace.Int es.Gga.es_jobs);
          Trace.note trace "search_wall_s" (Trace.Float es.Gga.es_search_wall_s)
      | None -> ());
      Trace.add trace "plan_cache_entries" (Gga.Groups.length plan_cache);
      match r with
      | Some g -> (r, g.best.groups, g.best.fissioned)
      | None -> (r, List.map (fun u -> [ units.rows.(u).u_name ]) targets, []))

(* stage 5a: apply the chosen fission and order the groups; returns the
   post-fission schedule analysis and the groups' launches in an order
   that respects the OEG *)
let schedule prog schedflow graphs plans fissioned units ~groups ~chosen =
  let chosen_plans = List.filter (fun (k, _) -> List.mem k chosen) plans in
  let flow, graphs =
    match (chosen_plans, fissioned) with
    | [], _ -> (schedflow, graphs)
    | _, Some (sf, _) when List.length chosen_plans = List.length plans ->
        (* every plan chosen: the fully fissioned pre-run program *)
        (sf, Ddg.of_schedflow sf)
    | _ ->
        let sf = Schedflow.analyze (Fission.apply_to_program ~plans:chosen_plans prog) in
        (sf, Ddg.of_schedflow sf)
  in
  (* an invocation that is no unit (a re-launch of a part) stays alone *)
  let labels = unit_labels units (List.map (List.filter_map (Hashtbl.find_opt units.ids)) groups) in
  let invs = Array.of_list graphs.Ddg.invocations in
  let label =
    Array.map
      (fun (inv : Ddg.invocation) ->
        match Hashtbl.find_opt units.ids inv.inv_key with
        | Some u -> labels.(u)
        | None -> Array.length labels + List.length groups + inv.inv_index)
      invs
  in
  let order =
    match contract graphs.oeg label with
    | Some order -> order
    | None ->
        (* an infeasible grouping slipped through (penalized but still the
           best found, or forced by a programmer amendment): break every
           group up and run the original schedule *)
        List.init (Array.length invs) (fun i -> [ i ])
  in
  (flow, List.map (List.map (fun i -> invs.(i).Ddg.inv_launch)) order)

(* stage 5b: code generation plus the post-codegen verification gate:
   passes 1-3 of [Kft_verify] over every emitted kernel plus translation
   validation of each fused group against the (post-fission) source
   program. Advisory mode records the report; fatal mode additionally
   rejects any fused kernel carrying a diagnostic -- its group is split
   back into singletons and code generation re-runs, mirroring the
   codegen's own fallback for infeasible groups. *)
let generate env (source_flow : Schedflow.t) groups =
  let config = env.config and trace = env.trace in
  let source = source_flow.program in
  let codegen_run groups =
    Trace.with_span trace "codegen" (fun () ->
        let cg = Codegen.transform ~options:config.codegen_options config.device source ~groups in
        Trace.add trace "kernels" (List.length cg.Codegen.reports);
        Trace.add trace "fused"
          (List.length
             (List.filter
                (fun (r : Codegen.kernel_report) -> r.fusion_kind <> `None)
                cg.Codegen.reports));
        cg)
  in
  (* with verification on, the emitted program's schedule analysis is
     made once and shared with the lint stage *)
  let validate (cg : Codegen.result) =
    Trace.with_span trace "verify" (fun () ->
        let vr, flow =
          match config.verify_mode with
          | Verify_off -> (Verify.empty_report, None)
          | Verify_advisory | Verify_fatal ->
              let flow = Schedflow.analyze cg.program in
              ( Verify.validate ~options:config.codegen_options ~source_flow ~flow ~source cg,
                Some flow )
        in
        List.iter (fun (p, n) -> Trace.add trace p n) (Verify.pass_counts vr);
        Trace.add trace "launches_checked" vr.Verify.stats.launches_checked;
        Trace.add trace "bounds_proved" vr.Verify.stats.bounds_proved;
        Trace.add trace "bounds_fallback" vr.Verify.stats.bounds_fallback;
        Trace.add trace "races_proved" vr.Verify.stats.races_proved;
        Trace.add trace "races_fallback" vr.Verify.stats.races_fallback;
        Trace.add trace "sched_deps_checked" vr.Verify.stats.sched_deps_checked;
        Trace.add trace "sched_fallback" vr.Verify.stats.sched_fallback;
        (vr, flow))
  in
  (* each round generates and validates; fatal mode splits the flagged
     fused groups and goes again, at most four times *)
  let rec gate attempts groups rejected =
    let cg = codegen_run groups in
    let vr, flow = validate cg in
    let flagged =
      if config.verify_mode <> Verify_fatal || Verify.is_clean vr || attempts <= 0 then []
      else
        let kernels = List.map (fun (d : Verify.diagnostic) -> d.d_kernel) vr.diagnostics in
        List.filter
          (fun (r : Codegen.kernel_report) ->
            r.fusion_kind <> `None && List.mem r.new_kernel kernels)
          cg.reports
    in
    (* no flagged fused kernel: the defects, if any, are not attributable
       to fusion (they would have to come from the source kernels
       themselves), so unfusing further cannot help *)
    if flagged = [] then (cg, vr, flow, rejected)
    else
      let members = List.concat_map (fun (r : Codegen.kernel_report) -> r.members) flagged in
      let split g =
        if List.exists (fun (l : launch) -> List.mem l.l_kernel members) g then
          List.map (fun l -> [ l ]) g
        else [ g ]
      in
      gate (attempts - 1) (List.concat_map split groups)
        (rejected
        @ List.map
            (fun (r : Codegen.kernel_report) ->
              ( r.new_kernel,
                Printf.sprintf "verification rejected the fused group [%s]"
                  (String.concat "," r.members) ))
            flagged)
  in
  gate 4 groups []

(* stage 5c: profile the emitted program and check its output against
   the source run. The comparison uses the two runs already held: arrays
   whose final content ids match are equal without a comparison. *)
let check_output env prog baseline transformed =
  let config = env.config in
  let run =
    Trace.with_span env.trace "profile-transformed" (fun () ->
        Meta.profile ~cache:env.cache ?engine:env.engine ~backend:config.backend ?trace:env.trace
          ~seed:config.seed config.device transformed)
  in
  let verified =
    Trace.with_span env.trace "output-verify" (fun () ->
        Meta.compare_outputs ~cache:env.cache ~seed:config.seed ~tol:config.verify_tolerance
          config.device ~original:(prog, baseline) ~transformed:(transformed, run))
  in
  (match (config.verify_mode, verified) with
  | Verify_fatal, Error diffs -> raise (Output_mismatch diffs)
  | _ -> ());
  (run, verified)

(* lint the emitted program; the measured per-kernel traffic from the
   profile run feeds the footprint-drift cross-check *)
let lint env transformed transformed_run transformed_flow =
  let trace = env.trace in
  let measured = Kft_sim.Profiler.traffic_by_kernel transformed_run in
  Trace.with_span trace "lint" (fun () ->
      let fs = Kft_absint.Lint.program ~measured transformed in
      (* schedule-level rules (dead-array / redundant-copy /
         transient-global) join the per-kernel findings in the same
         normalized order *)
      let sched_fs =
        match transformed_flow with
        | Some sf -> Schedflow.lint sf
        | None -> Schedflow.lint_program transformed
      in
      let fs = Kft_absint.Lint.normalize (fs @ sched_fs) in
      List.iter (fun (rule, n) -> Trace.add trace rule n) (Kft_absint.Lint.rule_counts fs);
      Trace.add trace "warnings" (Kft_absint.Lint.warnings fs);
      Trace.add trace "infos" (Kft_absint.Lint.infos fs);
      fs)

let counters env =
  ( Meta.Sim_cache.stats env.cache,
    Meta.Sim_cache.memo_stats env.cache,
    Kft_sim.Memory.Arenas.stats () )

(* the cache, launch-memo and arena counters this transform moved, from
   the [counters] taken before it ran, recorded on the root span *)
let account env
    ((s0 : Kft_engine.Engine.Cache.stats), (m0 : Meta.Sim_cache.memo_stats),
     (p0 : Kft_sim.Memory.Arenas.stats)) =
  let trace = env.trace in
  let s1, m1, p1 = counters env in
  let sim_cache_stats =
    { s1 with Kft_engine.Engine.Cache.hits = s1.hits - s0.hits; misses = s1.misses - s0.misses }
  in
  let launch_memo_stats =
    {
      m1 with
      Meta.Sim_cache.launch_hits = m1.launch_hits - m0.launch_hits;
      launch_misses = m1.launch_misses - m0.launch_misses;
      hashed_cells = m1.hashed_cells - m0.hashed_cells;
      intern_s = m1.intern_s -. m0.intern_s;
    }
  in
  Trace.add trace "sim_cache_hits" sim_cache_stats.hits;
  Trace.add trace "sim_cache_misses" sim_cache_stats.misses;
  Trace.add trace "launch_memo_hits" launch_memo_stats.launch_hits;
  Trace.add trace "launch_memo_misses" launch_memo_stats.launch_misses;
  Trace.note trace "hashed_cells" (Trace.Int launch_memo_stats.hashed_cells);
  Trace.note trace "intern_s" (Trace.Float launch_memo_stats.intern_s);
  (* requests and cells are a pure function of the simulation call
     sequence, so they live in the canonical (byte-stable) channel; the
     high-water mark is process-wide and counts earlier runs' unreleased
     memories, so it goes to the note side channel like the scheduler
     counters below *)
  let pool_stats =
    {
      p1 with
      Kft_sim.Memory.Arenas.requests = p1.requests - p0.requests;
      cells_requested = p1.cells_requested - p0.cells_requested;
    }
  in
  Trace.add trace "pool_requests" pool_stats.requests;
  Trace.add trace "pool_cells" pool_stats.cells_requested;
  Trace.note trace "pool_high_water" (Trace.Int pool_stats.high_water);
  (match env.engine with
  | Some e ->
      let ps = Kft_engine.Engine.pool_stats e in
      Trace.note trace "jobs" (Trace.Int ps.Kft_engine.Engine.Pool.st_jobs);
      Trace.note trace "workers" (Trace.Int ps.Kft_engine.Engine.Pool.st_workers);
      Trace.note trace "batches" (Trace.Int ps.Kft_engine.Engine.Pool.st_batches);
      Trace.note trace "batch_items" (Trace.Int ps.Kft_engine.Engine.Pool.st_items);
      Trace.note trace "max_queue" (Trace.Int ps.Kft_engine.Engine.Pool.st_max_queue);
      Trace.note trace "worker_tasks"
        (Trace.Str
           (String.concat ","
              (List.map string_of_int ps.Kft_engine.Engine.Pool.st_worker_tasks)))
  | None -> ());
  (sim_cache_stats, launch_memo_stats, pool_stats)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let transform ?(config = default_config) ?(hooks = no_hooks) ?engine ?trace prog =
  (* frontend validation -- a malformed program would otherwise surface
     as a confusing simulator fault deep in stage 1 *)
  (match Kft_cuda.Check.program prog with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Framework.transform: program %s fails validation:\n%s" prog.p_name
           (String.concat "\n" (List.map Kft_cuda.Check.pp_error errs))));
  (* every simulation of this transform goes through one cache: the
     caller's, to share it with other transforms, or a private one *)
  let cache = match config.sim_cache with Some c -> c | None -> Meta.Sim_cache.create () in
  let env = { config; cache; engine; trace } in
  let before = counters env in
  let meta, baseline = gather env prog in
  let meta = hooks.amend_metadata meta in
  let graphs, schedflow = analyze env prog in
  let targets, eligible = filter env hooks meta prog graphs in
  let fission_plans, fissioned_run = fission env prog eligible in
  let units = unit_table env meta prog targets fission_plans fissioned_run in
  let gga, solution_groups, fissioned = search env graphs units in
  let solution_groups = hooks.amend_solution solution_groups in
  let source_flow, groups =
    schedule prog schedflow graphs fission_plans fissioned_run units ~groups:solution_groups
      ~chosen:fissioned
  in
  let codegen, verify_report, transformed_flow, rejected_groups =
    generate env source_flow groups
  in
  let transformed = codegen.program in
  let transformed_run, verified = check_output env prog baseline transformed in
  let lint_findings = lint env transformed transformed_run transformed_flow in
  let sim_cache_stats, launch_memo_stats, pool_stats = account env before in
  {
    baseline;
    metadata = meta;
    graphs;
    schedflow;
    targets;
    fission_plans;
    gga;
    solution_groups;
    fissioned;
    codegen;
    transformed;
    transformed_run;
    speedup = Kft_sim.Profiler.speedup ~original:baseline ~transformed:transformed_run;
    verified;
    verify_report;
    lint_findings;
    rejected_groups;
    sim_cache_stats = Some sim_cache_stats;
    launch_memo_stats;
    pool_stats;
    trace;
  }

let stage_report r =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  p "== stage 1: metadata ==";
  p "kernels profiled: %d, baseline modeled time: %.1f us" (List.length r.metadata.performance)
    r.baseline.total_time_us;
  (match r.sim_cache_stats with
  | Some s ->
      p "  profile cache: %d hits, %d misses this run (%d cached simulations)"
        s.Kft_engine.Engine.Cache.hits s.misses s.size
  | None -> ());
  (let m = r.launch_memo_stats in
   p "  launch memo: %d hits, %d misses this run (%d contents, %.1f Mcells stored)"
     m.Meta.Sim_cache.launch_hits m.launch_misses m.contents
     (float_of_int m.stored_cells /. 1e6));
  (let ps = r.pool_stats in
   if ps.Kft_sim.Memory.Arenas.requests > 0 then
     p "  memory: %d arenas, %.1f Mcells requested" ps.requests
       (float_of_int ps.cells_requested /. 1e6));
  p "";
  p "== stage 2: target identification ==";
  List.iter
    (fun t ->
      p "  %-24s %-14s %s %s" t.invocation.inv_key
        (Classify.to_string t.classification)
        (if t.eligible then "[target]" else "[excluded]")
        t.reason)
    r.targets;
  p "";
  p "== stage 3: DDG / OEG ==";
  p "DDG: %d nodes, %d edges; OEG: %d nodes, %d edges"
    (Kft_graph.Digraph.node_count r.graphs.ddg)
    (Kft_graph.Digraph.edge_count r.graphs.ddg)
    (Array.length r.graphs.oeg) (Ddg.oeg_edge_count r.graphs);
  List.iter
    (fun (a, n) -> p "  redundant instances added for multi-writer array %s (%d copies)" a n)
    r.graphs.versioned_arrays;
  (let sf = r.schedflow in
   let s = sf.Schedflow.stats in
   p "  schedflow: %d ops (%d launches), %d arrays, %d deps (%d refined away by proved regions)"
     s.Schedflow.st_ops s.st_launches s.st_arrays s.st_deps s.st_deps_refined;
   p "  schedflow regions: %d proved, %d whole-array fallback; %d dataflow issue%s"
     s.st_regions_proved s.st_regions_fallback
     (List.length sf.Schedflow.issues)
     (if List.length sf.Schedflow.issues = 1 then "" else "s");
   List.iter (fun i -> p "    %s" (Schedflow.pp_issue i)) sf.Schedflow.issues);
  p "";
  p "== stage 4: GGA search ==";
  (match r.gga with
  | None -> p "  skipped (fewer than two targets)"
  | Some g ->
      p "  best objective %.3f GFLOPS (raw %.3f), %d violations" g.best.fitness
        g.best.raw_objective g.best.violations;
      p "  fission events: %d (%.3f per generation), converged at generation %d"
        g.fission_events g.avg_fissions_per_generation g.converged_at;
      let es = g.engine_stats in
      p "  engine: jobs=%d memo=%s; %d evaluations (%d computed, %.1f%% memo hits), %d group verdicts; %.3f s (%.2f ms/generation)"
        es.es_jobs
        (if es.es_memo then "on" else "off")
        es.es_requested es.es_computed (100.0 *. es.es_hit_rate) es.es_verdicts
        es.es_search_wall_s (1000.0 *. es.es_gen_wall_s));
  p "  groups: %s"
    (String.concat " | " (List.map (fun g -> String.concat "+" g) r.solution_groups));
  (if r.fissioned <> [] then p "  fissioned kernels: %s" (String.concat ", " r.fissioned));
  p "";
  p "== stage 5: code generation ==";
  List.iter
    (fun (rep : Codegen.kernel_report) ->
      p "  %-10s <- [%s] %s staged:%d shared:%dB block:%s occ %.2f->%.2f%s" rep.new_kernel
        (String.concat "," rep.members)
        (match rep.fusion_kind with `None -> "copy" | `Simple -> "simple-fusion" | `Complex -> "complex-fusion")
        (List.length rep.staged_arrays) rep.shared_bytes
        (let a, b, c = rep.block in
         Printf.sprintf "(%d,%d,%d)" a b c)
        rep.occupancy_before rep.occupancy_after
        (match rep.notes with [] -> "" | n -> " !! " ^ String.concat "; " n))
    r.codegen.reports;
  p "";
  p "== verification (kft_verify) ==";
  (let v = r.verify_report in
   if v.stats.launches_checked = 0 && v.diagnostics = [] then p "  skipped (verify_mode = off)"
   else begin
     p "  %d launches checked" v.stats.launches_checked;
     p "  bounds: %d launches proved by absint, %d unproved"
       v.stats.bounds_proved v.stats.bounds_fallback;
     p "  races: %d launches proved by absint, %d unproved"
       v.stats.races_proved v.stats.races_fallback;
     if v.stats.sched_deps_checked > 0 || v.stats.sched_fallback > 0 then
       p "  schedule: %d source dependences checked end-to-end, %d launches unplaced"
         v.stats.sched_deps_checked v.stats.sched_fallback;
     (match v.diagnostics with
     | [] -> p "  clean: no races, barrier divergence, bounds violations or order violations"
     | ds -> List.iter (fun d -> p "  %s" (Verify.pp_diagnostic d)) ds);
     List.iter (fun (k, reason) -> p "  %s: %s" k reason) r.rejected_groups
   end);
  p "";
  p "== lint (kft_absint) ==";
  (let w = Kft_absint.Lint.warnings r.lint_findings in
   let i = Kft_absint.Lint.infos r.lint_findings in
   if w = 0 && i = 0 then p "  clean: no findings"
   else begin
     p "  %d warning%s, %d advisory note%s" w
       (if w = 1 then "" else "s")
       i
       (if i = 1 then "" else "s");
     List.iter
       (fun (f : Kft_absint.Lint.finding) ->
         if f.f_severity = Kft_absint.Lint.Warn then
           p "  %s" (Kft_absint.Lint.render f))
       r.lint_findings
   end);
  p "";
  p "== result ==";
  p "speedup: %.3fx (%.1f us -> %.1f us), verification: %s" r.speedup r.baseline.total_time_us
    r.transformed_run.total_time_us
    (match r.verified with
    | Ok () -> "OK"
    | Error diffs -> Printf.sprintf "FAILED on %d arrays" (List.length diffs));
  (match r.trace with
  | None -> ()
  | Some t ->
      p "";
      p "== trace ==";
      Buffer.add_string buf (Trace.render_tree t));
  Buffer.contents buf

module Internal = struct
  let contract = contract

  let search_problem ?(config = default_config) prog =
    let env = { config; cache = Meta.Sim_cache.create (); engine = None; trace = None } in
    let meta, _ = gather env prog in
    let graphs, _ = analyze env prog in
    let targets, eligible = filter env no_hooks meta prog graphs in
    let plans, fissioned = fission env prog eligible in
    let units = unit_table env meta prog targets plans fissioned in
    (graphs, problem env graphs units (Gga.Groups.create 16))
end
