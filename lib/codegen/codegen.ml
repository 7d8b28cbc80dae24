open Kft_cuda.Ast
module C = Canonical

type kernel_report = {
  new_kernel : string;
  members : string list;
  fusion_kind : [ `None | `Simple | `Complex ];
  staged_arrays : (string * int) list;
  shared_bytes : int;
  block : int * int * int;
  tuned : bool;
  occupancy_before : float;
  occupancy_after : float;
  notes : string list;
}

type result = {
  program : Kft_cuda.Ast.program;
  reports : kernel_report list;
}

let occupancy_of device ~block:(bx, by, bz) ~regs ~shared =
  (Kft_device.Occupancy.calculate device
     { block_threads = bx * by * bz; regs_per_thread = regs; shared_per_block = shared })
    .occupancy

let has_top_guard (k : kernel) =
  let rec go = function
    | Decl _ :: rest | Shared_decl _ :: rest -> go rest
    | If (_, _, []) :: _ -> true
    | _ -> false
  in
  go k.k_body

let tune_single device prog (l : launch) =
  let k = find_kernel prog l.l_kernel in
  let regs = Kft_analysis.Cost.estimate_registers k in
  let shared =
    fold_stmts
      (fun acc s ->
        match s with Shared_decl (_, _, dims) -> acc + (8 * List.fold_left ( * ) 1 dims) | _ -> acc)
      0 k.k_body
  in
  let before = occupancy_of device ~block:l.l_block ~regs ~shared in
  if not (has_top_guard k) then (l.l_block, before, before, [])
  else begin
    let dims, result =
      Kft_device.Occupancy.tune device ~regs_per_thread:regs
        ~shared_per_block:(fun _ -> shared)
        ~current:l.l_block
    in
    (* a retuned launch must mean what the source launch meant *)
    if dims = l.l_block || Kft_analysis.Absint.block_invariant prog l ~block:dims then
      (dims, before, result.occupancy, [])
    else
      let pp (x, y, z) = Printf.sprintf "%dx%dx%d" x y z in
      ( l.l_block,
        before,
        before,
        [
          Printf.sprintf "kept block %s: retuning to %s is not proved to leave the launch unchanged"
            (pp l.l_block) (pp dims);
        ] )
  end

(* tuning for a fused kernel: the staging footprint depends on the block
   shape, so occupancy is evaluated per candidate with the plan's
   footprint function *)
let tune_fused device (plan : Fusion.plan) ~regs ~default_block =
  let shared_of (bx, by, _) = plan.p_shared_bytes bx by in
  let before = occupancy_of device ~block:default_block ~regs ~shared:(shared_of default_block) in
  let dims, result =
    Kft_device.Occupancy.tune device ~regs_per_thread:regs ~shared_per_block:shared_of
      ~current:default_block
  in
  (dims, before, result.occupancy)

let default_options = Fusion.auto_options

let transform ?(options = default_options) device prog ~groups =
  let reports = ref [] in
  let emitted_kernels : (string, kernel) Hashtbl.t = Hashtbl.create 32 in
  let kernel_order = ref [] in
  let emit_kernel k =
    if not (Hashtbl.mem emitted_kernels k.k_name) then begin
      Hashtbl.replace emitted_kernels k.k_name k;
      kernel_order := k.k_name :: !kernel_order
    end
  in
  let fused_counter = ref 0 in
  let schedule = ref [] in
  let emit_launch l = schedule := Launch l :: !schedule in

  let emit_single ?(notes = []) (l : launch) =
    let k = find_kernel prog l.l_kernel in
    emit_kernel k;
    let block, occ_before, occ_after, tune_notes =
      if options.tune_blocks then tune_single device prog l
      else
        let o =
          occupancy_of device ~block:l.l_block ~regs:(Kft_analysis.Cost.estimate_registers k) ~shared:0
        in
        (l.l_block, o, o, [])
    in
    emit_launch { l with l_block = block };
    reports :=
      {
        new_kernel = l.l_kernel;
        members = [ l.l_kernel ];
        fusion_kind = `None;
        staged_arrays = [];
        shared_bytes = 0;
        block;
        tuned = block <> l.l_block;
        occupancy_before = occ_before;
        occupancy_after = occ_after;
        notes = notes @ tune_notes;
      }
      :: !reports
  in

  let emit_group launches =
    match launches with
    | [] -> ()
    | [ l ] -> emit_single l
    | launches -> (
        let members =
          try
            Ok
              (List.mapi
                 (fun i l -> C.extract ~deep:options.deep_nest_strategy ~index:i prog l)
                 launches)
          with C.Not_canonical reason -> Error reason
        in
        match Result.bind members Fusion.check_group with
        | Error reason ->
            List.iter
              (fun l -> emit_single ~notes:[ "fusion fell back: " ^ reason ] l)
              launches
        | Ok plan -> (
            incr fused_counter;
            let name = Printf.sprintf "K_f%02d" !fused_counter in
            let default_block =
              let bx, by, _ = (List.hd launches).l_block in
              (bx, by, 1)
            in
            (* estimate registers from a build at the default block *)
            let build block =
              let bx, by, _ = block in
              Fusion.build device options ~name ~block:(bx, by) plan
            in
            match build default_block with
            | Error reason ->
                decr fused_counter;
                List.iter
                  (fun l -> emit_single ~notes:[ "fusion fell back: " ^ reason ] l)
                  launches
            | Ok (k0, _, _) -> (
                let regs = Kft_analysis.Cost.estimate_registers k0 in
                let block, occ_before, occ_after =
                  if options.tune_blocks then tune_fused device plan ~regs ~default_block
                  else
                    let bx, by, _ = default_block in
                    let o = occupancy_of device ~block:default_block ~regs ~shared:(plan.p_shared_bytes bx by) in
                    (default_block, o, o)
                in
                match build block with
                | Error reason ->
                    decr fused_counter;
                    List.iter
                      (fun l -> emit_single ~notes:[ "fusion fell back: " ^ reason ] l)
                      launches
                | Ok (kernel, launch, eliminated) ->
                    emit_kernel kernel;
                    emit_launch launch;
                    let bx, by, _ = block in
                    reports :=
                      {
                        new_kernel = name;
                        members = List.map (fun l -> l.l_kernel) launches;
                        fusion_kind =
                          (if List.exists (fun s -> s.Fusion.s_kind <> Fusion.Reuse) plan.p_stages
                           then `Complex
                           else `Simple);
                        staged_arrays =
                          List.map (fun s -> (s.Fusion.s_array, s.s_radius)) plan.p_stages;
                        shared_bytes = plan.p_shared_bytes bx by;
                        block;
                        tuned = block <> default_block;
                        occupancy_before = occ_before;
                        occupancy_after = occ_after;
                        notes =
                          (if eliminated > 0 then
                             [ Printf.sprintf "eliminated %d provably-true guard%s" eliminated
                                 (if eliminated = 1 then "" else "s") ]
                           else []);
                      }
                      :: !reports)))
  in
  List.iter emit_group groups;
  (* preserve non-launch host operations at the end (the simulator treats
     them as no-ops; real memcpys would need liveness-aware placement) *)
  let copies =
    List.filter (function Copy_to_device _ | Copy_to_host _ -> true | Launch _ -> false) prog.p_schedule
  in
  let kernels = List.rev_map (Hashtbl.find emitted_kernels) !kernel_order in
  {
    program =
      { prog with p_kernels = kernels; p_schedule = List.rev !schedule @ copies };
    reports = List.rev !reports;
  }
