(* Whole-schedule dataflow: per-op array access sets (region-refined by
   the abstract interpreter where it proves every matching access),
   liveness intervals, the schedule DDG, schedule-level issues, three
   lint rules and the liveness-driven arena overlay. Pure — every
   client (verify pass, kft lint, Framework, bench) re-derives the same
   result from the program alone. *)

open Kft_cuda.Ast
module Loc = Kft_cuda.Loc
module Absint = Kft_analysis.Absint
module Lint = Kft_absint.Lint
module Memory = Kft_sim.Memory

type region = Whole | Region of Absint.itv

type op_kind =
  | Launch_op of launch
  | Copy_in of string
  | Copy_out of string

type op = {
  op_index : int;
  op_kind : op_kind;
  op_launch : int option;
  op_reads : (string * region) list;
  op_writes : (string * region) list;
}

type array_info = {
  ai_name : string;
  ai_cells : int;
  ai_input : bool;
  ai_output : bool;
  ai_first : int option;
  ai_last : int option;
  ai_first_read : int option;
  ai_first_write : int option;
  ai_last_read : int option;
  ai_last_write : int option;
}

type dep_kind = Raw | War | Waw

let dep_kind_name = function Raw -> "raw" | War -> "war" | Waw -> "waw"

type dep = { dep_src : int; dep_dst : int; dep_array : string; dep_kind : dep_kind }

type issue =
  | Read_before_write of { rb_array : string; rb_op : int }
  | Dead_store of { ds_array : string; ds_op : int }

let pp_issue = function
  | Read_before_write { rb_array; rb_op } ->
      Printf.sprintf "array %s is read at op %d before any schedule write" rb_array rb_op
  | Dead_store { ds_array; ds_op } ->
      Printf.sprintf "the write to array %s at op %d is never read back (dead store)"
        ds_array ds_op

type stats = {
  st_ops : int;
  st_launches : int;
  st_arrays : int;
  st_deps : int;
  st_deps_refined : int;
  st_regions_proved : int;
  st_regions_fallback : int;
}

type t = {
  program : program;
  ops : op list;
  arrays : array_info list;
  deps : dep list;
  issues : issue list;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Per-op access sets                                                  *)
(* ------------------------------------------------------------------ *)

let itv_hull (a : Absint.itv) (b : Absint.itv) : Absint.itv =
  { lo = min a.lo b.lo; hi = max a.hi b.hi }

let whole_region p name =
  match List.find_opt (fun a -> a.a_name = name) p.p_arrays with
  | Some a -> Region { Absint.lo = 0; hi = array_cells a - 1 }
  | None -> Whole

let dedup l =
  let seen = Hashtbl.create 8 in
  List.filter (fun x -> if Hashtbl.mem seen x then false else (Hashtbl.replace seen x (); true)) l

(* Host arrays touched by a launch in one direction, in the order the
   kernel body first uses a parameter bound to them, each with a proved
   region when the abstract interpreter proved every access through
   every parameter bound to that array and recorded the footprint side
   (several parameters aliasing one array merge by interval hull). *)
let launch_sets p l =
  match find_kernel p l.l_kernel with
  | exception Not_found -> ([], [])
  | k -> (
      match bind_args k l.l_args with
      | exception Invalid_argument _ -> ([], [])
      | binds ->
          let array_binds =
            List.filter_map
              (fun (pname, arg) ->
                match arg with Arg_array h -> Some (pname, h) | _ -> None)
              binds
          in
          let res = Absint.analyze_launch p l in
          let direction ~write params_touched =
            let hosts =
              dedup (List.filter_map (fun pname -> List.assoc_opt pname array_binds) params_touched)
            in
            List.map
              (fun h ->
                let params =
                  List.filter_map
                    (fun (pname, h') ->
                      if h' = h && List.mem pname params_touched then Some pname
                      else None)
                    array_binds
                in
                let region =
                  match res with
                  | None -> Whole
                  | Some r ->
                      let proved =
                        List.for_all
                          (fun pname ->
                            List.for_all
                              (fun (a : Absint.access) ->
                                a.acc_array <> pname
                                || a.acc_space <> Absint.Global
                                || a.acc_write <> write
                                || a.acc_status = Absint.Proved)
                              r.Absint.res_accesses)
                          params
                      in
                      let sides =
                        List.map
                          (fun pname ->
                            match List.assoc_opt pname r.Absint.res_footprints with
                            | Some fp ->
                                if write then fp.Absint.fp_writes else fp.Absint.fp_reads
                            | None -> None)
                          params
                      in
                      if proved && List.for_all Option.is_some sides then
                        match List.filter_map Fun.id sides with
                        | [] -> Whole
                        | s :: rest -> Region (List.fold_left itv_hull s rest)
                      else Whole
                in
                (h, region))
              hosts
          in
          ( direction ~write:false (arrays_read k.k_body),
            direction ~write:true (arrays_written k.k_body) ))

let build_ops p =
  let launches = ref 0 in
  List.mapi
    (fun i hop ->
      match hop with
      | Launch l ->
          let li = !launches in
          incr launches;
          let reads, writes = launch_sets p l in
          { op_index = i; op_kind = Launch_op l; op_launch = Some li;
            op_reads = reads; op_writes = writes }
      | Copy_to_device a ->
          { op_index = i; op_kind = Copy_in a; op_launch = None; op_reads = [];
            op_writes = [ (a, whole_region p a) ] }
      | Copy_to_host a ->
          { op_index = i; op_kind = Copy_out a; op_launch = None;
            op_reads = [ (a, whole_region p a) ]; op_writes = [] })
    p.p_schedule

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let build_arrays p ops =
  let copies_in =
    List.filter_map (function Copy_to_device a -> Some a | _ -> None) p.p_schedule
  in
  let copies_out =
    List.filter_map (function Copy_to_host a -> Some a | _ -> None) p.p_schedule
  in
  let info = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace info a.a_name
        {
          ai_name = a.a_name;
          ai_cells = array_cells a;
          ai_input = copies_in = [] || List.mem a.a_name copies_in;
          ai_output = copies_out = [] || List.mem a.a_name copies_out;
          ai_first = None;
          ai_last = None;
          ai_first_read = None;
          ai_first_write = None;
          ai_last_read = None;
          ai_last_write = None;
        })
    p.p_arrays;
  let touch ~write i name =
    match Hashtbl.find_opt info name with
    | None -> ()
    | Some ai ->
        let fst_of cur = match cur with None -> Some i | some -> some in
        let ai =
          {
            ai with
            ai_first = fst_of ai.ai_first;
            ai_last = Some i;
            ai_first_read = (if write then ai.ai_first_read else fst_of ai.ai_first_read);
            ai_first_write = (if write then fst_of ai.ai_first_write else ai.ai_first_write);
            ai_last_read = (if write then ai.ai_last_read else Some i);
            ai_last_write = (if write then Some i else ai.ai_last_write);
          }
        in
        Hashtbl.replace info name ai
  in
  List.iter
    (fun op ->
      List.iter (fun (a, _) -> touch ~write:false op.op_index a) op.op_reads;
      List.iter (fun (a, _) -> touch ~write:true op.op_index a) op.op_writes)
    ops;
  List.filter_map (fun a -> Hashtbl.find_opt info a.a_name) p.p_arrays
  |> List.sort (fun a b -> compare a.ai_name b.ai_name)

(* ------------------------------------------------------------------ *)
(* Schedule DDG                                                        *)
(* ------------------------------------------------------------------ *)

(* Every RAW / WAR / WAW pair whose end regions are not proved
   disjoint, sorted; the second component counts the refined-away ones *)
let build_deps ops =
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let kept = ref [] and refined = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let consider kind side_i side_j =
        List.iter
          (fun (a, ri) ->
            match (ri, List.assoc_opt a side_j) with
            | _, None -> ()
            | Region r, Some (Region r') when Absint.regions_disjoint r r' -> incr refined
            | _ -> kept := { dep_src = i; dep_dst = j; dep_array = a; dep_kind = kind } :: !kept)
          side_i
      in
      consider Raw arr.(i).op_writes arr.(j).op_reads;
      consider War arr.(i).op_reads arr.(j).op_writes;
      consider Waw arr.(i).op_writes arr.(j).op_writes
    done
  done;
  ( List.sort
      (fun a b ->
        compare
          (a.dep_src, a.dep_dst, a.dep_array, dep_kind_name a.dep_kind)
          (b.dep_src, b.dep_dst, b.dep_array, dep_kind_name b.dep_kind))
      !kept,
    !refined )

(* ------------------------------------------------------------------ *)
(* Issues                                                              *)
(* ------------------------------------------------------------------ *)

let build_issues arrays =
  List.concat_map
    (fun ai ->
      let rbw =
        match (ai.ai_input, ai.ai_first_read) with
        | false, Some r
          when (match ai.ai_first_write with None -> true | Some w -> r <= w) ->
            (* a same-op read counts as before the write: the schedule
               grain cannot order accesses inside one launch *)
            [ Read_before_write { rb_array = ai.ai_name; rb_op = r } ]
        | _ -> []
      in
      let dead =
        match (ai.ai_output, ai.ai_last_write) with
        | false, Some w
          when (match ai.ai_last_read with None -> true | Some r -> r < w) ->
            [ Dead_store { ds_array = ai.ai_name; ds_op = w } ]
        | _ -> []
      in
      rbw @ dead)
    arrays

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let count_regions ops =
  List.fold_left
    (fun (p, f) op ->
      List.fold_left
        (fun (p, f) (_, r) -> match r with Region _ -> (p + 1, f) | Whole -> (p, f + 1))
        (p, f)
        (op.op_reads @ op.op_writes))
    (0, 0) ops

let analyze p =
  let ops = build_ops p in
  let arrays = build_arrays p ops in
  let deps, refined = build_deps ops in
  let issues = build_issues arrays in
  let proved, fallback = count_regions ops in
  {
    program = p;
    ops;
    arrays;
    deps;
    issues;
    stats =
      {
        st_ops = List.length ops;
        st_launches =
          List.length (List.filter (fun o -> o.op_launch <> None) ops);
        st_arrays = List.length arrays;
        st_deps = List.length deps;
        st_deps_refined = refined;
        st_regions_proved = proved;
        st_regions_fallback = fallback;
      };
  }

let live_interval t name =
  match List.find_opt (fun ai -> ai.ai_name = name) t.arrays with
  | Some { ai_first = Some f; ai_last = Some l; _ } -> Some (f, l)
  | _ -> None

let launch_deps t =
  let arr = Array.of_list t.ops in
  List.filter_map
    (fun d ->
      match (arr.(d.dep_src).op_launch, arr.(d.dep_dst).op_launch) with
      | Some a, Some b -> Some (a, b, d.dep_array)
      | _ -> None)
    t.deps
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Liveness-driven arena overlay                                       *)
(* ------------------------------------------------------------------ *)

type slot = { sid : int; mutable cap : int; mutable slast : int }

let arena_layout t =
  let packed_total = List.fold_left (fun s ai -> s + ai.ai_cells) 0 t.arrays in
  let birth ai = match ai.ai_first with Some f -> f | None -> max_int in
  let order =
    List.sort
      (fun a b -> compare (birth a, a.ai_name) (birth b, b.ai_name))
      t.arrays
  in
  let slots = ref [] in
  let assignment =
    List.map
      (fun ai ->
        let b = birth ai in
        let ai_last = match ai.ai_last with Some l -> l | None -> -1 in
        (* only never-read arrays may join a slot: no read ever
           observes the clobbered founder data, so every value any read
           sees is the packed run's value bit-for-bit *)
        let eligible =
          if ai.ai_first_read <> None then []
          else List.filter (fun s -> s.slast < b) !slots
        in
        let slot =
          match
            List.fold_left
              (fun best s ->
                match best with
                | Some b' when (b'.cap, -b'.sid) >= (s.cap, -s.sid) -> best
                | _ -> Some s)
              None eligible
          with
          | Some s ->
              s.cap <- max s.cap ai.ai_cells;
              s.slast <- max s.slast ai_last;
              s
          | None ->
              let s = { sid = List.length !slots; cap = ai.ai_cells; slast = ai_last } in
              slots := !slots @ [ s ];
              s
        in
        (ai.ai_name, slot))
      order
  in
  let l_total = List.fold_left (fun s sl -> s + sl.cap) 0 !slots in
  if l_total >= packed_total then None
  else begin
    let offsets = Hashtbl.create 8 in
    let off = ref 0 in
    List.iter
      (fun s ->
        Hashtbl.replace offsets s.sid !off;
        off := !off + s.cap)
      !slots;
    Some
      {
        Memory.l_offsets =
          List.map (fun (name, s) -> (name, Hashtbl.find offsets s.sid)) assignment
          |> List.sort compare;
        l_total;
        (* founders seed last so their pattern survives on shared slots;
           tenants are never read, so their lost pattern is unobservable *)
        l_seed_order = List.rev_map (fun (name, _) -> name) assignment;
      }
  end

(* ------------------------------------------------------------------ *)
(* Lint rules                                                          *)
(* ------------------------------------------------------------------ *)

let op_kernel op =
  match op.op_kind with Launch_op l -> l.l_kernel | Copy_in _ | Copy_out _ -> ""

let find_op t i = List.find (fun o -> o.op_index = i) t.ops

let mk_finding t kernel rule severity message =
  {
    Lint.f_program = t.program.p_name;
    f_kernel = kernel;
    f_loc = Loc.none;
    f_rule = rule;
    f_severity = severity;
    f_message = message;
  }

let dead_array_findings t =
  List.concat_map
    (fun ai ->
      if ai.ai_output then []
      else
        match (ai.ai_first, ai.ai_first_read) with
        | None, _ ->
            [
              mk_finding t "" "dead-array" Lint.Warn
                (Printf.sprintf "array %s is never accessed by any launch or copy"
                   ai.ai_name);
            ]
        | Some _, None ->
            let writer =
              match ai.ai_first_write with
              | Some w -> op_kernel (find_op t w)
              | None -> ""
            in
            [
              mk_finding t writer "dead-array" Lint.Warn
                (Printf.sprintf "array %s is written but never read" ai.ai_name);
            ]
        | _ -> [])
    t.arrays

(* A verbatim-copy kernel body: every global-array store is
   [dst[idx] = src[idx]] with syntactically identical index forms, one
   (dst, src) pair across the whole body. *)
let copy_shape k =
  let stores =
    fold_stmts
      (fun acc s ->
        match s with
        | Assign (Lindex (dst, idx), rhs) -> Some (dst, idx, rhs) :: acc
        | _ -> acc)
      [] k.k_body
  in
  let pairs =
    List.map
      (function
        | Some (dst, idx, Index (src, idx'))
          when src <> dst
               && List.length idx = List.length idx'
               && List.for_all2 equal_expr idx idx' ->
            Some (dst, src)
        | _ -> None)
      stores
  in
  match List.sort_uniq compare pairs with
  | [ Some (dst, src) ] when arrays_written k.k_body = [ dst ] -> Some (dst, src)
  | _ -> None

let redundant_copy_findings t =
  List.concat_map
    (fun op ->
      match op.op_kind with
      | Copy_in _ | Copy_out _ -> []
      | Launch_op l -> (
          match find_kernel t.program l.l_kernel with
          | exception Not_found -> []
          | k -> (
              match copy_shape k with
              | None -> []
              | Some (dst, src) -> (
                  match Absint.analyze_launch t.program l with
                  | Some r when r.Absint.res_all_proved -> (
                      let fp name side =
                        match List.assoc_opt name r.Absint.res_footprints with
                        | Some f -> side f
                        | None -> None
                      in
                      match
                        (fp dst (fun f -> f.Absint.fp_writes),
                         fp src (fun f -> f.Absint.fp_reads))
                      with
                      | Some w, Some rd when w = rd ->
                          let host name =
                            match
                              List.assoc_opt name (bind_args k l.l_args)
                            with
                            | Some (Arg_array h) -> h
                            | _ -> name
                          in
                          [
                            mk_finding t l.l_kernel "redundant-copy" Lint.Warn
                              (Printf.sprintf
                                 "launch copies %s into %s verbatim over the proved \
                                  region %s: the consumer could read %s directly"
                                 (host src) (host dst) (Absint.pp_itv w) (host src));
                          ]
                      | _ -> [])
                  | _ -> []))))
    t.ops

let transient_global_findings t =
  List.concat_map
    (fun ai ->
      match (ai.ai_input || ai.ai_output, ai.ai_first, ai.ai_last) with
      | false, Some f, Some l
        when f = l && ai.ai_first_read = Some f && ai.ai_first_write = Some f ->
          let kernel = op_kernel (find_op t f) in
          if kernel = "" then []
          else
            [
              mk_finding t kernel "transient-global" Lint.Info
                (Printf.sprintf
                   "array %s is live only inside this launch: a fused kernel could \
                    stage it in shared memory or registers"
                   ai.ai_name);
            ]
      | _ -> [])
    t.arrays

let lint t =
  Lint.normalize
    (dead_array_findings t @ redundant_copy_findings t @ transient_global_findings t)

let lint_program p = lint (analyze p)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let region_text = function
  | Whole -> "whole"
  | Region i -> Printf.sprintf "[%d,%d]" i.Absint.lo i.Absint.hi

let by_name side = List.sort (fun (a, _) (b, _) -> compare a b) side

let op_text op =
  match op.op_kind with
  | Launch_op l -> Printf.sprintf "launch %s" l.l_kernel
  | Copy_in a -> Printf.sprintf "copy-in %s" a
  | Copy_out a -> Printf.sprintf "copy-out %s" a

let render_human t =
  let b = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  p "schedule analysis: %s" t.program.p_name;
  p "  ops: %d (%d launches), arrays: %d, deps: %d (%d refined away), regions: %d proved / %d whole-array"
    t.stats.st_ops t.stats.st_launches t.stats.st_arrays t.stats.st_deps
    t.stats.st_deps_refined t.stats.st_regions_proved t.stats.st_regions_fallback;
  p "  liveness:";
  List.iter
    (fun ai ->
      let live =
        match (ai.ai_first, ai.ai_last) with
        | Some f, Some l -> Printf.sprintf "live [%d,%d]" f l
        | _ -> "never accessed"
      in
      p "    %-12s %8d cells  %-16s%s%s" ai.ai_name ai.ai_cells live
        (if ai.ai_input then " input" else "")
        (if ai.ai_output then " output" else ""))
    t.arrays;
  p "  ops:";
  List.iter
    (fun op ->
      let side tag l =
        if l = [] then ""
        else
          Printf.sprintf "  %s %s" tag
            (String.concat ","
               (List.map (fun (a, r) -> a ^ region_text r) l))
      in
      p "    op%-3d %-24s%s%s" op.op_index (op_text op)
        (side "reads" (by_name op.op_reads)) (side "writes" (by_name op.op_writes)))
    t.ops;
  p "  deps:";
  if t.deps = [] then p "    (none)"
  else
    List.iter
      (fun d ->
        p "    op%d -> op%d  %s  %s" d.dep_src d.dep_dst (dep_kind_name d.dep_kind)
          d.dep_array)
      t.deps;
  p "  issues:";
  if t.issues = [] then p "    (none)"
  else List.iter (fun i -> p "    %s" (pp_issue i)) t.issues;
  let findings = lint t in
  p "  findings:";
  if findings = [] then p "    (none)"
  else List.iter (fun f -> p "    %s" (Lint.render f)) findings;
  Buffer.contents b

let render_json ts =
  let b = Buffer.create 4096 in
  let esc = Lint.json_escape in
  let opt_int = function None -> "null" | Some i -> string_of_int i in
  Buffer.add_string b "{\"tool\":\"kft-schedflow\",\"version\":1,\"programs\":[";
  List.iteri
    (fun pi t ->
      if pi > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n {\"name\":\"%s\",\"stats\":{\"ops\":%d,\"launches\":%d,\"arrays\":%d,\"deps\":%d,\"deps_refined\":%d,\"regions_proved\":%d,\"regions_fallback\":%d}"
           (esc t.program.p_name) t.stats.st_ops t.stats.st_launches t.stats.st_arrays
           t.stats.st_deps t.stats.st_deps_refined t.stats.st_regions_proved
           t.stats.st_regions_fallback);
      Buffer.add_string b ",\n  \"arrays\":[";
      List.iteri
        (fun i ai ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "\n   {\"name\":\"%s\",\"cells\":%d,\"input\":%b,\"output\":%b,\"first\":%s,\"last\":%s,\"first_read\":%s,\"first_write\":%s,\"last_read\":%s,\"last_write\":%s}"
               (esc ai.ai_name) ai.ai_cells ai.ai_input ai.ai_output
               (opt_int ai.ai_first) (opt_int ai.ai_last) (opt_int ai.ai_first_read)
               (opt_int ai.ai_first_write) (opt_int ai.ai_last_read)
               (opt_int ai.ai_last_write)))
        t.arrays;
      Buffer.add_string b "],\n  \"ops\":[";
      List.iteri
        (fun i op ->
          if i > 0 then Buffer.add_char b ',';
          let kind, name =
            match op.op_kind with
            | Launch_op l -> ("launch", l.l_kernel)
            | Copy_in a -> ("copy-in", a)
            | Copy_out a -> ("copy-out", a)
          in
          let side l =
            String.concat ","
              (List.map
                 (fun (a, r) ->
                   Printf.sprintf "{\"array\":\"%s\",\"region\":%s}" (esc a)
                     (match r with
                     | Whole -> "\"whole\""
                     | Region i -> Printf.sprintf "[%d,%d]" i.Absint.lo i.Absint.hi))
                 (by_name l))
          in
          Buffer.add_string b
            (Printf.sprintf
               "\n   {\"op\":%d,\"kind\":\"%s\",\"target\":\"%s\",\"reads\":[%s],\"writes\":[%s]}"
               op.op_index kind (esc name) (side op.op_reads) (side op.op_writes)))
        t.ops;
      Buffer.add_string b "],\n  \"deps\":[";
      List.iteri
        (fun i d ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "\n   {\"src\":%d,\"dst\":%d,\"array\":\"%s\",\"kind\":\"%s\"}"
               d.dep_src d.dep_dst (esc d.dep_array) (dep_kind_name d.dep_kind)))
        t.deps;
      Buffer.add_string b "],\n  \"issues\":[";
      List.iteri
        (fun i is ->
          if i > 0 then Buffer.add_char b ',';
          let kind, array, op =
            match is with
            | Read_before_write { rb_array; rb_op } ->
                ("read-before-write", rb_array, rb_op)
            | Dead_store { ds_array; ds_op } -> ("dead-store", ds_array, ds_op)
          in
          Buffer.add_string b
            (Printf.sprintf "\n   {\"kind\":\"%s\",\"array\":\"%s\",\"op\":%d}" kind
               (esc array) op))
        t.issues;
      Buffer.add_string b "],\n  \"findings\":[";
      List.iteri
        (fun i (f : Lint.finding) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "\n   {\"kernel\":\"%s\",\"severity\":\"%s\",\"rule\":\"%s\",\"message\":\"%s\"}"
               (esc f.f_kernel)
               (Lint.severity_name f.f_severity)
               (esc f.f_rule) (esc f.f_message)))
        (lint t);
      Buffer.add_string b "]}")
    ts;
  let all = List.concat_map lint ts in
  Buffer.add_string b
    (Printf.sprintf "\n],\"warnings\":%d,\"infos\":%d}\n" (Lint.warnings all)
       (Lint.infos all));
  Buffer.contents b
