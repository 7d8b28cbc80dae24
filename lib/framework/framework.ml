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

let classify_invocation mode (meta : Meta.t) prog graphs (inv : Ddg.invocation) =
  let perf = Meta.find_perf meta inv.inv_kernel in
  let ops = Meta.find_ops meta inv.inv_kernel in
  let dx, dy, dz = ops.domain in
  (* spatial coverage includes the vertical loop the canonical mapping
     iterates inside the kernel *)
  let vertical_trip =
    List.fold_left (fun acc (l : Meta.loop_op) -> if l.vertical then max acc l.trip else acc) 1
      ops.loops
  in
  let args =
    ( perf.flops,
      perf.bytes,
      dx * dy * dz * vertical_trip,
      max_array_cells prog graphs inv,
      ops.active_fraction )
  in
  let flops, bytes, domain_cells, max_cells, active = args in
  match mode with
  | No_filtering -> Classify.Memory_bound
  | Automated ->
      Classify.classify_static ~device:Kft_device.Device.k20x ~flops ~bytes ~domain_cells
        ~max_array_cells:max_cells ~active_fraction:active
  | Manual ->
      Classify.classify_measured ~device:Kft_device.Device.k20x ~flops ~bytes ~domain_cells
        ~max_array_cells:max_cells ~active_fraction:active ~runtime_us:perf.runtime_us

let identify_targets config meta prog (graphs : Ddg.t) =
  List.map
    (fun (inv : Ddg.invocation) ->
      let classification = classify_invocation config.filter_mode meta prog graphs inv in
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
      { invocation = inv; classification; eligible; reason })
    graphs.invocations

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let transform ?(config = default_config) ?(hooks = no_hooks) ?engine ?trace prog =
  (* stage 0: frontend validation -- a malformed program would otherwise
     surface as a confusing simulator fault deep in stage 1 *)
  (match Kft_cuda.Check.program prog with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Framework.transform: program %s fails validation:\n%s" prog.p_name
           (String.concat "\n" (List.map Kft_cuda.Check.pp_error errs))));
  let device = config.device in
  (* every simulation of this transform goes through one cache: the
     caller's, to share it with other transforms, or a private one *)
  let cache =
    match config.sim_cache with Some c -> c | None -> Meta.Sim_cache.create ()
  in
  let backend = config.backend in
  let cache_stats_before = Meta.Sim_cache.stats cache in
  let memo_stats_before = Meta.Sim_cache.memo_stats cache in
  let pool_stats_before = Kft_sim.Memory.Arenas.stats () in
  (* stage 1: metadata (simulation runs go through the profile cache, so
     re-transforming a program — or verifying against it later — replays
     the stored run instead of re-simulating) *)
  let meta, baseline =
    Trace.with_span trace "gather" (fun () ->
        let meta, baseline = Meta.gather ~cache ?engine ~backend ?trace ~seed:config.seed device prog in
        Trace.add trace "kernels" (List.length meta.Meta.performance);
        (meta, baseline))
  in
  let meta = hooks.amend_metadata meta in
  (* stage 2/3: graphs + targets. One whole-schedule dataflow analysis
     yields both the invocation DDG / OEG and the element-region schedule
     DDG, liveness and issues reported under "schedflow". *)
  let graphs, schedflow =
    Trace.with_span trace "ddg" (fun () ->
        let sf = Schedflow.analyze prog in
        let g = Ddg.of_schedflow sf in
        Trace.add trace "ddg_nodes" (Kft_graph.Digraph.node_count g.Ddg.ddg);
        Trace.add trace "ddg_edges" (Kft_graph.Digraph.edge_count g.Ddg.ddg);
        Trace.add trace "oeg_nodes" (Kft_graph.Digraph.node_count g.Ddg.oeg);
        Trace.add trace "oeg_edges" (Kft_graph.Digraph.edge_count g.Ddg.oeg);
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
  let targets, eligible =
    Trace.with_span trace "filter" (fun () ->
        let targets0 = identify_targets config meta prog graphs in
        let amended =
          hooks.amend_targets
            (List.map (fun t -> (t.invocation.inv_key, t.eligible)) targets0)
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
        Trace.add trace "invocations" (List.length targets);
        Trace.add trace "targets" (List.length eligible);
        (targets, eligible))
  in
  (* lazy-fission pre-step: plans + one profiled run of the fully
     fissioned variant to collect part metadata (Section 4.1) *)
  let fission_plans, fissioned_flow, meta_fissioned =
    Trace.with_span trace "fission" (fun () ->
        let fission_plans =
          if not config.gga_params.fission_enabled then []
          else
            List.filter_map
              (fun t ->
                let k = find_kernel prog t.invocation.inv_kernel in
                Option.map (fun p -> (k.k_name, p)) (Fission.plan ~seed:config.seed k))
              eligible
        in
        let fissioned_flow =
          if fission_plans = [] then None
          else Some (Schedflow.analyze (Fission.apply_to_program ~plans:fission_plans prog))
        in
        let meta_fissioned =
          Option.map
            (fun (sf : Schedflow.t) ->
              (* only the metadata survives this pre-step, so the run
                 qualifies for the liveness-driven arena overlay: arrays
                 whose live intervals never overlap share storage, and
                 the discarded arena is smaller. Stats and timings are
                 bit-identical either way (see [Memory.layout]). *)
              let layout = Schedflow.arena_layout sf in
              let m, grun =
                Meta.gather ~cache ?engine ~backend ?trace ?layout ~seed:config.seed device
                  sf.program
              in
              (* the profiled run's memory is dead: take it off the live
                 count *)
              Kft_sim.Memory.release grun.Kft_sim.Profiler.memory;
              m)
            fissioned_flow
        in
        Trace.add trace "plans" (List.length fission_plans);
        (fission_plans, fissioned_flow, meta_fissioned))
  in
  (* canonical-member cache for codegen-level feasibility *)
  let member_cache : (string, (Canonical.member, string) Stdlib.result) Hashtbl.t =
    Hashtbl.create 64
  in
  let cache_member source_prog (invocations : Ddg.invocation list) key =
    if not (Hashtbl.mem member_cache key) then begin
      let r =
        match
          Canonical.extract ~deep:config.codegen_options.deep_nest_strategy ~index:0 source_prog
            (List.find (fun (i : Ddg.invocation) -> i.inv_key = key) invocations).inv_launch
        with
        | m -> Ok m
        | exception Canonical.Not_canonical reason -> Error reason
        | exception Not_found -> Error "launch not found"
      in
      Hashtbl.replace member_cache key r
    end
  in
  List.iter (fun t -> cache_member prog graphs.invocations t.invocation.inv_key) eligible;
  Option.iter
    (fun (sf : Schedflow.t) ->
      let invocations = Ddg.invocations sf.program in
      List.iter
        (fun (_, (plan : Fission.plan)) ->
          List.iter
            (fun (part : Fission.part) ->
              cache_member sf.program invocations part.part_kernel.k_name)
            plan.parts)
        fission_plans)
    fissioned_flow;
  (* schedule position of each unit (fission parts take their position in
     the fully-fissioned schedule); groups coming out of the GGA are
     unordered, while fusion feasibility and codegen are order-sensitive *)
  let unit_pos : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (inv : Ddg.invocation) -> Hashtbl.replace unit_pos inv.inv_key (inv.inv_index * 1000))
    graphs.invocations;
  List.iter
    (fun (orig, (plan : Fission.plan)) ->
      match Hashtbl.find_opt unit_pos orig with
      | None -> ()
      | Some base ->
          List.iteri
            (fun i (part : Fission.part) ->
              Hashtbl.replace unit_pos part.part_kernel.k_name (base + i + 1))
            plan.parts)
    fission_plans;
  let schedule_sort names =
    List.sort
      (fun a b ->
        compare
          (Option.value ~default:max_int (Hashtbl.find_opt unit_pos a))
          (Option.value ~default:max_int (Hashtbl.find_opt unit_pos b)))
      names
  in
  (* the plan cache is read and written from the engine's worker domains
     during the GGA search (via [feasible] / [shared_ok]); guard it with a
     mutex. The plan computation itself runs outside the critical section:
     two domains may compute the same key concurrently, but the result is
     a pure function of the key so the duplicate insert is benign (and
     [member_cache] / [unit_pos] are read-only by then). *)
  let group_plan_cache : (string, (Fusion.plan, string) Stdlib.result) Hashtbl.t =
    Hashtbl.create 256
  in
  let group_plan_mutex = Mutex.create () in
  (* hit/miss split is scheduling-dependent at jobs > 1 (two workers can
     miss on the same key concurrently) -> trace side channel; the entry
     count is the set of distinct keys queried -> deterministic *)
  let gp_hits = ref 0 and gp_misses = ref 0 in
  let group_plan names =
    let names = schedule_sort names in
    let key = String.concat "|" names in
    match
      Mutex.protect group_plan_mutex (fun () ->
          let r = Hashtbl.find_opt group_plan_cache key in
          (match r with Some _ -> incr gp_hits | None -> incr gp_misses);
          r)
    with
    | Some r -> r
    | None ->
        let r =
          let members =
            List.fold_left
              (fun acc name ->
                match acc with
                | Error _ -> acc
                | Ok ms -> (
                    match Hashtbl.find_opt member_cache name with
                    | Some (Ok m) -> Ok (m :: ms)
                    | Some (Error e) -> Error e
                    | None -> Error ("no canonical form cached for " ^ name)))
              (Ok []) names
          in
          match members with
          | Error e -> Error e
          | Ok ms ->
              let ms = List.rev ms in
              Fusion.check_group (List.mapi (fun i (m : Canonical.member) -> { m with m_index = i }) ms)
        in
        Mutex.protect group_plan_mutex (fun () ->
            if not (Hashtbl.mem group_plan_cache key) then Hashtbl.replace group_plan_cache key r);
        r
  in
  (* stage 4: GGA *)
  (* a fission part collapses back to the kernel its plan split, for OEG
     feasibility; every other name is a source kernel *)
  let original_of =
    let parts = Hashtbl.create 16 in
    List.iter
      (fun (orig, (plan : Fission.plan)) ->
        List.iter
          (fun (part : Fission.part) -> Hashtbl.replace parts part.part_kernel.k_name orig)
          plan.parts)
      fission_plans;
    fun name -> Option.value (Hashtbl.find_opt parts name) ~default:name
  in
  let units =
    List.map (fun t -> Perfmodel.of_metadata meta t.invocation.inv_kernel) eligible
  in
  let fission_parts =
    match meta_fissioned with
    | None -> []
    | Some mf ->
        List.map
          (fun (orig, (plan : Fission.plan)) ->
            ( orig,
              List.map
                (fun (part : Fission.part) -> Perfmodel.of_metadata mf part.part_kernel.k_name)
                plan.parts ))
          fission_plans
  in
  let part_arrays =
    List.concat_map
      (fun (_, (plan : Fission.plan)) ->
        List.map
          (fun (part : Fission.part) ->
            ( part.part_kernel.k_name,
              match Hashtbl.find_opt member_cache part.part_kernel.k_name with
              | Some (Ok m) -> Canonical.touched_arrays m
              | _ -> part.part_arrays ))
          plan.parts)
      fission_plans
  in
  let feasible names =
    match names with
    | [] | [ _ ] -> true
    | _ ->
        let collapsed = List.sort_uniq compare (List.map original_of names) in
        Ddg.fusion_feasible graphs collapsed
        && (match group_plan names with Ok _ -> true | Error _ -> false)
  in
  let shared_ok models =
    match models with
    | [] | [ _ ] -> true
    | first :: _ -> (
        let names = List.map (fun (m : Perfmodel.unit_model) -> m.unit_name) models in
        match group_plan names with
        | Ok plan ->
            let bx, by, _ = first.block in
            plan.p_shared_bytes bx by <= device.shared_mem_per_block
        | Error _ -> true)
  in
  (* joint schedulability: expand OEG edges over the units actually
     present in a solution (parts replace their fissioned original),
     contract all groups at once and check acyclicity. Every unit name
     gets an integer id up front; a query then only labels units with
     group ids and runs Kahn over int arrays. *)
  let unit_id : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let id_of name =
    match Hashtbl.find_opt unit_id name with
    | Some u -> u
    | None ->
        let u = Hashtbl.length unit_id in
        Hashtbl.replace unit_id name u;
        u
  in
  (* invocation [i] is unit [i]; fission parts follow *)
  List.iter (fun (inv : Ddg.invocation) -> ignore (id_of inv.inv_key)) graphs.invocations;
  let n_inv = Hashtbl.length unit_id in
  let part_units =
    Array.of_list
      (List.map
         (fun (inv : Ddg.invocation) ->
           Option.map
             (fun (plan : Fission.plan) ->
               List.map (fun (p : Fission.part) -> id_of p.part_kernel.k_name) plan.parts)
             (List.assoc_opt inv.inv_key fission_plans))
         graphs.invocations)
  in
  let n_units = Hashtbl.length unit_id in
  let oeg_edges =
    List.map
      (fun (a, b) -> (Hashtbl.find unit_id a, Hashtbl.find unit_id b))
      (Kft_graph.Digraph.edges graphs.oeg)
  in
  let solution_feasible ~groups ~fissioned =
    let units = Array.init n_inv (fun i -> [ i ]) in
    List.iter
      (fun k ->
        match Hashtbl.find_opt unit_id k with
        | Some i when i < n_inv -> Option.iter (fun parts -> units.(i) <- parts) part_units.(i)
        | _ -> ())
      fissioned;
    (* quotient node of each unit: its group's index, or a singleton id
       past the group range *)
    let n_groups = List.length groups in
    let gid = Array.init n_units (fun u -> n_groups + u) in
    List.iteri
      (fun g group ->
        List.iter
          (fun name -> Option.iter (fun u -> gid.(u) <- g) (Hashtbl.find_opt unit_id name))
          group)
      groups;
    let n = n_groups + n_units in
    let present = Array.make n false and indeg = Array.make n 0 and succs = Array.make n [] in
    Array.iter (List.iter (fun u -> present.(gid.(u)) <- true)) units;
    List.iter
      (fun (a, b) ->
        List.iter
          (fun ua ->
            List.iter
              (fun ub ->
                let ga = gid.(ua) and gb = gid.(ub) in
                if ga <> gb then begin
                  succs.(ga) <- gb :: succs.(ga);
                  indeg.(gb) <- indeg.(gb) + 1
                end)
              units.(b))
          units.(a))
      oeg_edges;
    (* Kahn: the quotient is acyclic iff every present node gets emitted *)
    let ready = Stack.create () and remaining = ref 0 in
    Array.iteri
      (fun q p ->
        if p then begin
          incr remaining;
          if indeg.(q) = 0 then Stack.push q ready
        end)
      present;
    while not (Stack.is_empty ready) do
      decr remaining;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Stack.push s ready)
        succs.(Stack.pop ready)
    done;
    !remaining = 0
  in
  let problem =
    {
      Gga.units;
      fission_parts;
      part_arrays;
      feasible;
      solution_feasible;
      objective = Perfmodel.objective device;
      shared_ok;
    }
  in
  let gga_result =
    Trace.with_span trace "search" (fun () ->
        let r =
          if List.length units >= 2 then Some (Gga.run ?engine ?trace config.gga_params problem)
          else None
        in
        Trace.add trace "units" (List.length units);
        (match r with
        | Some g ->
            let es = g.Gga.engine_stats in
            Trace.add trace "memo_requested" es.Gga.es_requested;
            Trace.add trace "memo_computed" es.Gga.es_computed;
            Trace.set trace "memo" (Trace.Bool es.Gga.es_memo);
            Trace.note trace "jobs" (Trace.Int es.Gga.es_jobs);
            Trace.note trace "search_wall_s" (Trace.Float es.Gga.es_search_wall_s)
        | None -> ());
        Trace.add trace "plan_cache_entries" (Hashtbl.length group_plan_cache);
        Trace.note trace "plan_cache_hits" (Trace.Int !gp_hits);
        Trace.note trace "plan_cache_misses" (Trace.Int !gp_misses);
        r)
  in
  let solution_groups =
    match gga_result with
    | Some r -> r.best.groups
    | None -> List.map (fun (m : Perfmodel.unit_model) -> [ m.unit_name ]) units
  in
  let solution_groups = hooks.amend_solution solution_groups in
  let fissioned =
    match gga_result with Some r -> r.best.fissioned | None -> []
  in
  (* stage 5: apply fission, order groups, generate code *)
  let chosen_plans = List.filter (fun (k, _) -> List.mem k fissioned) fission_plans in
  let flow', graphs' =
    match (chosen_plans, fissioned_flow) with
    | [], _ -> (schedflow, graphs)
    | _, Some sf when List.length chosen_plans = List.length fission_plans ->
        (* every plan chosen: the fully fissioned pre-run program *)
        (sf, Ddg.of_schedflow sf)
    | _ ->
        let sf = Schedflow.analyze (Fission.apply_to_program ~plans:chosen_plans prog) in
        (sf, Ddg.of_schedflow sf)
  in
  let prog' = flow'.program in
  let gid_of : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i group -> List.iter (fun u -> Hashtbl.replace gid_of u (Printf.sprintf "g%d" i)) group)
    solution_groups;
  let group_of key =
    match Hashtbl.find_opt gid_of key with Some g -> g | None -> "solo:" ^ key
  in
  let quotient = Kft_graph.Digraph.quotient graphs'.oeg ~group_of:(fun k -> group_of k) in
  let ordered_gids =
    match Kft_graph.Digraph.topo_sort quotient with
    | order -> order
    | exception Kft_graph.Digraph.Cycle _ ->
        (* an infeasible grouping slipped through (penalized but still the
           best found, or forced by a programmer amendment): break every
           group up and run the original schedule *)
        Hashtbl.reset gid_of;
        List.map
          (fun (inv : Ddg.invocation) ->
            Hashtbl.replace gid_of inv.inv_key ("solo:" ^ inv.inv_key);
            "solo:" ^ inv.inv_key)
          graphs'.invocations
  in
  let launches_of_gid gid =
    List.filter_map
      (fun (inv : Ddg.invocation) ->
        if group_of inv.inv_key = gid then Some inv.inv_launch else None)
      graphs'.invocations
  in
  let groups = List.map launches_of_gid ordered_gids |> List.filter (fun g -> g <> []) in
  (* post-codegen verification gate: passes 1-3 of [Kft_verify] over every
     emitted kernel plus translation validation of each fused group
     against the (post-fission) source program. Advisory mode records the
     report; fatal mode additionally rejects any fused kernel carrying a
     diagnostic -- its group is split back into singletons and code
     generation re-runs, mirroring the codegen's own fallback for
     infeasible groups. *)
  let codegen_run groups =
    Trace.with_span trace "codegen" (fun () ->
        let cg = Codegen.transform ~options:config.codegen_options device prog' ~groups in
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
              ( Verify.validate ~options:config.codegen_options ~source_flow:flow' ~flow
                  ~source:prog' cg,
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
  let codegen0 = codegen_run groups in
  let rec gate attempts groups (cg : Codegen.result) ((vr : Verify.report), flow) rejected =
    if config.verify_mode <> Verify_fatal || Verify.is_clean vr || attempts <= 0 then
      (cg, vr, flow, rejected)
    else begin
      let flagged_kernels =
        List.sort_uniq compare (List.map (fun (d : Verify.diagnostic) -> d.d_kernel) vr.diagnostics)
      in
      let flagged_reports =
        List.filter
          (fun (r : Codegen.kernel_report) ->
            r.fusion_kind <> `None && List.mem r.new_kernel flagged_kernels)
          cg.reports
      in
      if flagged_reports = [] then
        (* the defects are not attributable to fusion (they would have to
           come from the source kernels themselves); unfusing further
           cannot help *)
        (cg, vr, flow, rejected)
      else begin
        let flagged_members =
          List.concat_map (fun (r : Codegen.kernel_report) -> r.members) flagged_reports
        in
        let groups' =
          List.concat_map
            (fun g ->
              if List.exists (fun (l : launch) -> List.mem l.l_kernel flagged_members) g
              then List.map (fun l -> [ l ]) g
              else [ g ])
            groups
        in
        let rejected' =
          rejected
          @ List.map
              (fun (r : Codegen.kernel_report) ->
                ( r.new_kernel,
                  Printf.sprintf "verification rejected the fused group [%s]"
                    (String.concat "," r.members) ))
              flagged_reports
        in
        let cg' = codegen_run groups' in
        gate (attempts - 1) groups' cg' (validate cg') rejected'
      end
    end
  in
  let codegen, verify_report, transformed_flow, rejected_groups =
    gate 4 groups codegen0 (validate codegen0) []
  in
  let transformed = codegen.program in
  let transformed_run =
    Trace.with_span trace "profile-transformed" (fun () ->
        Meta.profile ~cache ?engine ~backend ?trace ~seed:config.seed device transformed)
  in
  (* output verification compares the two runs already held: arrays
     whose final content ids match are equal without a comparison *)
  let verified =
    Trace.with_span trace "output-verify" (fun () ->
        Meta.compare_outputs ~cache ~seed:config.seed ~tol:config.verify_tolerance device
          ~original:(prog, baseline) ~transformed:(transformed, transformed_run))
  in
  (* lint the emitted program; the measured per-kernel traffic from the
     profile run feeds the footprint-drift cross-check *)
  let lint_findings =
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
  in
  let sim_cache_stats =
    let s1 = Meta.Sim_cache.stats cache and s0 = cache_stats_before in
    { s1 with Kft_engine.Engine.Cache.hits = s1.hits - s0.hits; misses = s1.misses - s0.misses }
  in
  let launch_memo_stats =
    let m1 = Meta.Sim_cache.memo_stats cache and m0 = memo_stats_before in
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
  (* arena accounting for this run. Requests and cells are a pure
     function of the simulation call sequence, so they live in the
     canonical (byte-stable) channel; the high-water mark is process-wide
     and counts earlier runs' unreleased memories, so it goes to the
     note side channel like the scheduler counters below. *)
  let pool_stats =
    let s1 = Kft_sim.Memory.Arenas.stats () in
    let s0 = pool_stats_before in
    {
      s1 with
      Kft_sim.Memory.Arenas.requests = s1.requests - s0.requests;
      cells_requested = s1.cells_requested - s0.cells_requested;
    }
  in
  Trace.add trace "pool_requests" pool_stats.Kft_sim.Memory.Arenas.requests;
  Trace.add trace "pool_cells" pool_stats.cells_requested;
  Trace.note trace "pool_high_water" (Trace.Int pool_stats.high_water);
  (match engine with
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
  {
    baseline;
    metadata = meta;
    graphs;
    schedflow;
    targets;
    fission_plans;
    gga = gga_result;
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
    (Kft_graph.Digraph.node_count r.graphs.oeg)
    (Kft_graph.Digraph.edge_count r.graphs.oeg);
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
      p "  engine: jobs=%d memo=%s; %d evaluations (%d computed, %.1f%% memo hits); %.3f s (%.2f ms/generation)"
        es.es_jobs
        (if es.es_memo then "on" else "off")
        es.es_requested es.es_computed (100.0 *. es.es_hit_rate) es.es_search_wall_s
        (1000.0 *. es.es_gen_wall_s));
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
