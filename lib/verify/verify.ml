open Kft_cuda.Ast
module Loc = Kft_cuda.Loc
module Pp = Kft_cuda.Pp
module Fusion = Kft_codegen.Fusion
module Canonical = Kft_codegen.Canonical
module Codegen = Kft_codegen.Codegen
module Schedflow = Kft_schedflow.Schedflow
module Absint = Kft_analysis.Absint

type pass = Race | Barrier | Bounds | Translation | Schedule | Engine

let pass_name = function
  | Race -> "race"
  | Barrier -> "barrier"
  | Bounds -> "bounds"
  | Translation -> "translation"
  | Schedule -> "schedule"
  | Engine -> "engine"

type diagnostic = {
  d_kernel : string;
  d_pass : pass;
  d_loc : Loc.pos;
  d_stmt : string;
  d_array : string;  (* array the finding is about, "" when not array-specific *)
  d_message : string;
}

let pp_diagnostic d =
  let loc = if Loc.is_none d.d_loc then "" else Loc.pp d.d_loc ^ ":" in
  let stmt = if d.d_stmt = "" then "" else Printf.sprintf " -- %s" d.d_stmt in
  Printf.sprintf "%s:%s[%s] %s%s" d.d_kernel loc (pass_name d.d_pass) d.d_message stmt

type stats = {
  launches_checked : int;
  blocks_sampled : int;  (* always 0: nothing is sampled *)
  threads_walked : int;  (* always 0 *)
  events : int;  (* always 0 *)
  bounds_proved : int;  (* launches whose every access absint proved in bounds *)
  bounds_fallback : int;  (* launches left unproved, each reported as a diagnostic *)
  races_proved : int;  (* launches proved race-free from the absint access forms *)
  races_fallback : int;  (* launches left unproved, each reported as a diagnostic *)
  sched_deps_checked : int;  (* source schedule dependences checked end-to-end *)
  sched_fallback : int;  (* source launches the member mapping could not place *)
}

type report = { diagnostics : diagnostic list; stats : stats; complete : bool }

let empty_stats =
  {
    launches_checked = 0;
    blocks_sampled = 0;
    threads_walked = 0;
    events = 0;
    bounds_proved = 0;
    bounds_fallback = 0;
    races_proved = 0;
    races_fallback = 0;
    sched_deps_checked = 0;
    sched_fallback = 0;
  }
let empty_report = { diagnostics = []; stats = empty_stats; complete = true }

(* per-pass finding counts in a fixed pass order (trace counters and the
   @verify sweep consume this; the fixed order keeps it byte-stable) *)
let pass_counts r =
  List.map
    (fun p ->
      ( pass_name p,
        List.length (List.filter (fun (d : diagnostic) -> d.d_pass = p) r.diagnostics) ))
    [ Race; Barrier; Bounds; Translation; Schedule; Engine ]

(* Diagnostics are kept in a canonical order — (kernel, line, col, pass,
   message, statement, array) — so that merged or parallel-produced
   reports render identically regardless of scheduling ([--jobs] sweeps
   must be byte-stable). [sort_uniq] also deduplicates across merged
   reports; the array name participates so two different-array findings
   at the same kernel:line:col never collapse into one. *)
let compare_diagnostics (a : diagnostic) (b : diagnostic) =
  let c = compare a.d_kernel b.d_kernel in
  if c <> 0 then c
  else
    let c = compare a.d_loc.line b.d_loc.line in
    if c <> 0 then c
    else
      let c = compare a.d_loc.col b.d_loc.col in
      if c <> 0 then c
      else
        let c = compare (pass_name a.d_pass) (pass_name b.d_pass) in
        if c <> 0 then c
        else
          let c = compare a.d_message b.d_message in
          if c <> 0 then c
          else
            let c = compare a.d_stmt b.d_stmt in
            if c <> 0 then c else compare a.d_array b.d_array

let normalize_diagnostics ds = List.sort_uniq compare_diagnostics ds

let merge a b =
  {
    diagnostics = normalize_diagnostics (a.diagnostics @ b.diagnostics);
    stats =
      {
        launches_checked = a.stats.launches_checked + b.stats.launches_checked;
        blocks_sampled = 0;
        threads_walked = 0;
        events = 0;
        bounds_proved = a.stats.bounds_proved + b.stats.bounds_proved;
        bounds_fallback = a.stats.bounds_fallback + b.stats.bounds_fallback;
        races_proved = a.stats.races_proved + b.stats.races_proved;
        races_fallback = a.stats.races_fallback + b.stats.races_fallback;
        sched_deps_checked = a.stats.sched_deps_checked + b.stats.sched_deps_checked;
        sched_fallback = a.stats.sched_fallback + b.stats.sched_fallback;
      };
    complete = true;
  }

let is_clean r = r.diagnostics = []

(* ------------------------------------------------------------------ *)
(* Diagnostic collection                                               *)
(* ------------------------------------------------------------------ *)

type collector = {
  mutable out : diagnostic list;  (* reversed *)
  mutable launches : int;
  mutable bproved : int;
  mutable bfallback : int;
  mutable rproved : int;
  mutable rfallback : int;
  mutable sdeps : int;
  mutable sfallback : int;
}

let new_collector () =
  {
    out = [];
    launches = 0;
    bproved = 0;
    bfallback = 0;
    rproved = 0;
    rfallback = 0;
    sdeps = 0;
    sfallback = 0;
  }

(* one-line statement rendering quoted in diagnostics *)
let stmt_line s =
  let text = Pp.stmt ~indent:0 s in
  let text = match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text in
  let text = String.trim text in
  if String.length text > 72 then String.sub text 0 69 ^ "..." else text

(* the statement of [body] at [loc], rendered; [""] for synthesized ASTs *)
let stmt_at body loc =
  if Loc.is_none loc then ""
  else
    match fold_stmts (fun acc s -> if acc = None && Loc.find s = loc then Some s else acc) None body with
    | Some s -> stmt_line s
    | None -> ""

(* duplicates (a kernel launched twice) collapse in [normalize_diagnostics] *)
let emit col ~pass ~kernel ~loc ~stmt ?(array = "") fmt =
  Printf.ksprintf
    (fun msg ->
      col.out <-
        { d_kernel = kernel; d_pass = pass; d_loc = loc; d_stmt = stmt; d_array = array; d_message = msg }
        :: col.out)
    fmt

let report_of col =
  {
    diagnostics = normalize_diagnostics (List.rev col.out);
    stats =
      {
        empty_stats with
        launches_checked = col.launches;
        bounds_proved = col.bproved;
        bounds_fallback = col.bfallback;
        races_proved = col.rproved;
        races_fallback = col.rfallback;
        sched_deps_checked = col.sdeps;
        sched_fallback = col.sfallback;
      };
    complete = true;
  }

(* ------------------------------------------------------------------ *)
(* Pass 2: barrier divergence                                          *)
(* ------------------------------------------------------------------ *)

(* [true] when a barrier may diverge: the race pass is then skipped
   because barrier intervals are not well-defined *)
let barrier_pass col (k : kernel) =
  let findings = Kft_cuda.Check.barrier_divergence k in
  List.iter
    (fun (loc, s, what) ->
      emit col ~pass:Barrier ~kernel:k.k_name ~loc ~stmt:(stmt_line s) "%s" what)
    findings;
  findings <> []

(* ------------------------------------------------------------------ *)
(* Passes 1 & 3: bounds and races, proved from Absint                   *)
(* ------------------------------------------------------------------ *)

(* the first mismatch between the launch's arguments and the kernel's
   parameters *)
let bind_launch prog k (l : launch) =
  let declared a = List.exists (fun d -> d.a_name = a) prog.p_arrays in
  match Kft_cuda.Check.launch_args ~declared k l.l_args with
  | why :: _ -> Error why
  | [] -> Ok ()

(* Every access must be proved in bounds and the launch race-free; an
   access or a pair the proof leaves open is a diagnostic, never a
   sample. *)
let verify_launch_into col prog (l : launch) =
  match find_kernel prog l.l_kernel with
  | exception Not_found -> () (* Check.program reports it *)
  | k -> (
      col.launches <- col.launches + 1;
      match bind_launch prog k l with
      | Error why ->
          col.bfallback <- col.bfallback + 1;
          col.rfallback <- col.rfallback + 1;
          emit col ~pass:Engine ~kernel:k.k_name
            ~loc:(match k.k_body with s :: _ -> Loc.find s | [] -> Loc.none)
            ~stmt:"" "launch arguments do not match the parameters of %s: %s; launch not analyzed"
            k.k_name why
      | Ok () ->
          (* [analyze_launch] binds the same arguments *)
          let absint = Option.get (Absint.analyze_launch prog l) in
          if absint.Absint.res_all_proved then col.bproved <- col.bproved + 1
          else col.bfallback <- col.bfallback + 1;
          List.iter
            (fun (a : Absint.access) ->
              let kind = if a.acc_write then "write" else "read" in
              let range = Absint.pp_itv a.acc_range in
              let stmt = stmt_at k.k_body a.acc_loc in
              match (a.acc_status = Absint.Oob, a.acc_space) with
              | true, Absint.Global ->
                  emit col ~pass:Bounds ~kernel:k.k_name ~loc:a.acc_loc ~stmt
                    "out-of-bounds %s of %s: proved index range %s entirely outside extent of %d cells"
                    kind a.acc_array range a.acc_extent
              | true, Absint.Shared ->
                  emit col ~pass:Bounds ~kernel:k.k_name ~loc:a.acc_loc ~stmt
                    "out-of-bounds %s of shared %s: a subscript lies entirely outside its dimension \
                     (linearized range %s, %d cells)"
                    kind a.acc_array range a.acc_extent
              | false, space ->
                  emit col ~pass:Bounds ~kernel:k.k_name ~loc:a.acc_loc ~stmt
                    "%s of %s%s not proved in bounds: proved index range %s, extent of %d cells" kind
                    (if space = Absint.Shared then "shared " else "")
                    a.acc_array range a.acc_extent)
            (List.filter (fun (a : Absint.access) -> a.acc_status <> Absint.Proved) absint.res_accesses);
          if barrier_pass col k then begin
            col.rfallback <- col.rfallback + 1;
            emit col ~pass:Engine ~kernel:k.k_name ~loc:Loc.none ~stmt:""
              "race analysis skipped: kernel has statically divergent barriers"
          end
          else begin
            match Absint.launch_race_verdict prog l absint with
            | Absint.Race_free _ -> col.rproved <- col.rproved + 1
            | Absint.Race_unsettled u ->
                col.rfallback <- col.rfallback + 1;
                emit col ~pass:Race ~kernel:k.k_name ~loc:u.un_loc ~stmt:(stmt_at k.k_body u.un_loc)
                  "race freedom not proved: %s%s" u.un_why
                  (match u.un_tried with
                  | [] -> ""
                  | rules -> " (rules tried: " ^ String.concat ", " rules ^ ")")
          end)

let verify_launch prog l =
  let col = new_collector () in
  verify_launch_into col prog l;
  report_of col

let verify_program prog =
  let col = new_collector () in
  List.iter (function Launch l -> verify_launch_into col prog l | _ -> ()) prog.p_schedule;
  report_of col

(* ------------------------------------------------------------------ *)
(* Pass 4: translation validation                                      *)
(* ------------------------------------------------------------------ *)

let validate ?(options = Fusion.auto_options) ?source_flow ?flow ~source (res : Codegen.result) =
  let col = new_collector () in
  (* passes 1-3 over everything the generator emitted *)
  List.iter (function Launch l -> verify_launch_into col res.program l | _ -> ()) res.program.p_schedule;
  (* legality re-derivation for fused kernels *)
  let launch_of name =
    List.find_map
      (function Launch l when l.l_kernel = name -> Some l | _ -> None)
      source.p_schedule
  in
  List.iter
    (fun (rep : Codegen.kernel_report) ->
      let fused = rep.fusion_kind <> `None && List.length rep.members >= 2 in
      if fused then begin
        match
          List.mapi
            (fun i name ->
              match launch_of name with
              | None -> raise Not_found
              | Some l ->
                  Canonical.extract ~deep:options.deep_nest_strategy ~index:i source l)
            rep.members
        with
        | ms -> (
            match Fusion.check_group ms with
            | Ok _ -> ()
            | Error e ->
                emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
                  "legality re-check of the fused group failed: %s" e)
        | exception Canonical.Not_canonical r ->
            emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
              "a fused member is no longer canonical on re-extraction: %s" r
        | exception Not_found ->
            emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
              "a fused member has no launch in the source schedule"
      end)
    res.reports;
  (* schedule pass: whole-schedule dataflow issues on the transformed
     schedule, then end-to-end preservation of the source schedule DDG,
     fused member order included *)
  let sf_out = match flow with Some sf -> sf | None -> Schedflow.analyze res.program in
  let out_ops = Array.of_list sf_out.Schedflow.ops in
  let op_kernel i =
    match out_ops.(i).Schedflow.op_kind with
    | Schedflow.Launch_op l -> l.l_kernel
    | _ -> ""
  in
  List.iter
    (fun issue ->
      match issue with
      | Schedflow.Read_before_write { rb_array; rb_op } ->
          emit col ~pass:Schedule ~kernel:(op_kernel rb_op) ~loc:Loc.none ~stmt:""
            ~array:rb_array
            "array %s is read at schedule op %d before any write" rb_array rb_op
      | Schedflow.Dead_store { ds_array; ds_op } ->
          emit col ~pass:Schedule ~kernel:(op_kernel ds_op) ~loc:Loc.none ~stmt:""
            ~array:ds_array
            "the write to array %s at schedule op %d is never read back" ds_array ds_op)
    sf_out.Schedflow.issues;
  let source_flow =
    match source_flow with Some sf -> sf | None -> Schedflow.analyze source
  in
  let deps = Schedflow.launch_deps source_flow in
  (* transformed position (report, member) of each source launch:
     reports are emitted in transformed schedule order and list their
     source members by kernel name, so per-kernel FIFO queues resolve
     re-launches in order *)
  let queues : (string, (int * int) Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let reports = Array.of_list res.reports in
  Array.iteri
    (fun ti (rep : Codegen.kernel_report) ->
      List.iteri
        (fun mi m ->
          let q =
            match Hashtbl.find_opt queues m with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace queues m q;
                q
          in
          Queue.add (ti, mi) q)
        rep.members)
    reports;
  let src_launches =
    List.filter_map (function Launch l -> Some l | _ -> None) source.p_schedule
    |> Array.of_list
  in
  let pos =
    Array.map
      (fun (l : launch) ->
        match Hashtbl.find_opt queues l.l_kernel with
        | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
        | _ -> None)
      src_launches
  in
  let unplaced =
    Array.fold_left (fun n p -> if p = None then n + 1 else n) 0 pos
  in
  let leftover =
    Hashtbl.fold (fun _ q n -> n + Queue.length q) queues 0
  in
  col.sdeps <- col.sdeps + List.length deps;
  if unplaced > 0 || leftover > 0 then begin
    col.sfallback <- col.sfallback + unplaced + leftover;
    emit col ~pass:Schedule ~kernel:"" ~loc:Loc.none ~stmt:""
      "schedule DDG validation incomplete: %d source launch%s unplaced, %d transformed member%s unmatched"
      unplaced
      (if unplaced = 1 then "" else "es")
      leftover
      (if leftover = 1 then "" else "s")
  end;
  (* a dependence ordered only through a launch outside a fused group
     breaks a direct dependence at the report level, so direct ones
     suffice for member order too *)
  List.iter
    (fun (i, j, a) ->
      match (pos.(i), pos.(j)) with
      | Some (pi, mi), Some (pj, mj) when pi = pj && mi > mj ->
          emit col ~pass:Translation ~kernel:reports.(pi).new_kernel ~loc:Loc.none ~stmt:""
            "fused member order violates the source DDG: %s must execute before %s"
            src_launches.(i).l_kernel src_launches.(j).l_kernel
      | Some (pi, _), Some (pj, _) when pi > pj ->
          emit col ~pass:Schedule ~kernel:src_launches.(j).l_kernel ~loc:Loc.none
            ~stmt:"" ~array:a
            "transformed schedule reorders a source dependence on %s: %s (launch %d) \
             must precede %s (launch %d)"
            a
            src_launches.(i).l_kernel i src_launches.(j).l_kernel j;
          (* a fused kernel on either side may be the cause (its members
             misordered through the other launch): name it, so a fatal
             gate can split it *)
          List.iter
            (fun (rep : Codegen.kernel_report) ->
              if rep.fusion_kind <> `None && List.length rep.members >= 2 then
                emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
                  ~array:a
                  "fused kernel [%s] is on a reordered source dependence: %s (launch %d) \
                   must precede %s (launch %d)"
                  (String.concat "," rep.members)
                  src_launches.(i).l_kernel i src_launches.(j).l_kernel j)
            [ reports.(pi); reports.(pj) ]
      | _ -> ())
    deps;
  report_of col

module Internal = struct
  let race_verdict prog l =
    match find_kernel prog l.l_kernel with
    | exception Not_found -> None
    | k -> (
        match bind_launch prog k l with
        | Ok () -> Option.map (Absint.launch_race_verdict prog l) (Absint.analyze_launch prog l)
        | Error _ -> None)
end
