(* Lint rules over the abstract interpreter's access and guard records.
   Pure: all hardware numbers are advisory hints from Kft_perfmodel,
   deliberately decoupled from the GGA objective. *)

open Kft_cuda.Ast
module Loc = Kft_cuda.Loc
module Pm = Kft_perfmodel.Perfmodel

type severity = Warn | Info

type finding = {
  f_program : string;
  f_kernel : string;
  f_loc : Loc.pos;
  f_rule : string;
  f_severity : severity;
  f_message : string;
}

let severity_name = function Warn -> "warning" | Info -> "info"

(* total order: (program, kernel, line, col, rule, message) — the
   byte-stability contract of the JSON output *)
let compare_findings a b =
  let c = compare a.f_program b.f_program in
  if c <> 0 then c
  else
    let c = compare a.f_kernel b.f_kernel in
    if c <> 0 then c
    else
      let c = compare a.f_loc.Loc.line b.f_loc.Loc.line in
      if c <> 0 then c
      else
        let c = compare a.f_loc.Loc.col b.f_loc.Loc.col in
        if c <> 0 then c
        else
          let c = compare a.f_rule b.f_rule in
          if c <> 0 then c else compare a.f_message b.f_message

let normalize fs = List.sort_uniq compare_findings fs

(* ------------------------------------------------------------------ *)
(* rules                                                               *)
(* ------------------------------------------------------------------ *)

let access_findings pname kernel (a : Absint.access) =
  let mk rule severity message =
    {
      f_program = pname;
      f_kernel = kernel;
      f_loc = a.acc_loc;
      f_rule = rule;
      f_severity = severity;
      f_message = message;
    }
  in
  let dir = if a.acc_write then "write" else "read" in
  let space = match a.acc_space with Absint.Global -> "global" | Absint.Shared -> "shared" in
  let bounds =
    match a.acc_status with
    | Absint.Proved -> []
    | Absint.Oob ->
        [
          mk "bounds" Warn
            (Printf.sprintf "%s of %s %s proved out of bounds: index range %s vs extent %d"
               dir space a.acc_array
               (Absint.pp_itv a.acc_range)
               a.acc_extent);
        ]
    | Absint.Unknown ->
        [
          mk "bounds" Warn
            (Printf.sprintf
               "cannot prove %s of %s %s in bounds: index range %s vs extent %d \
                (kft_verify reports it as unproved)"
               dir space a.acc_array
               (Absint.pp_itv a.acc_range)
               a.acc_extent);
        ]
  in
  let pattern =
    match (a.acc_space, a.acc_tx_stride) with
    | Absint.Global, Some s when abs s > 1 ->
        [
          mk "uncoalesced" Warn
            (Printf.sprintf
               "%s of %s strides %d elements across threadIdx.x: up to %.0fx transaction \
                amplification per warp"
               dir a.acc_array s
               (Pm.coalescing_amplification ~stride:s));
        ]
    | Absint.Shared, Some s when s <> 0 && Pm.bank_conflict_ways ~stride:s > 1 ->
        [
          mk "bank-conflict" Warn
            (Printf.sprintf
               "%s of %s has threadIdx.x stride %d: %d-way shared-memory bank conflict"
               dir a.acc_array s
               (Pm.bank_conflict_ways ~stride:s));
        ]
    | _ -> []
  in
  bounds @ pattern

let guard_findings pname kernel (g : Absint.guard) =
  let mk rule severity message =
    {
      f_program = pname;
      f_kernel = kernel;
      f_loc = g.gu_loc;
      f_rule = rule;
      f_severity = severity;
      f_message = message;
    }
  in
  match g.gu_decided with
  | Some b ->
      [
        mk "dead-guard" Info
          (Printf.sprintf "guard (%s) is statically %s: branch can be spliced away"
             g.gu_cond
             (if b then "true" else "false"));
      ]
  | None when g.gu_thread_dep ->
      [
        mk "divergent-guard" Info
          (Printf.sprintf
             "thread-dependent guard (%s) forces warp divergence: modeled serialization \
              factor %.2f"
             g.gu_cond
             (Pm.divergence_penalty ~taken_fraction:g.gu_frac));
      ]
  | None -> []

(* footprint cross-check: only when the static estimate is exact and the
   kernel is launched exactly once (the profiler counter is per kernel,
   the estimate per launch) *)
let drift_threshold = 0.25

let footprint_findings pname kernel ~launch_count ~measured (r : Absint.result) =
  match measured with
  | Some m when launch_count = 1 && r.Absint.res_est_exact && m > 0.0 ->
      let est = r.Absint.res_est_bytes in
      let drift = Float.abs (est -. m) /. m in
      if drift > drift_threshold then
        [
          {
            f_program = pname;
            f_kernel = kernel;
            f_loc = Loc.none;
            f_rule = "footprint-drift";
            f_severity = Warn;
            f_message =
              Printf.sprintf
                "static global-traffic estimate %.0f bytes disagrees with measured %.0f \
                 bytes (%.0f%% drift)"
                est m (drift *. 100.0);
          };
        ]
      else []
  | _ -> []

(* ------------------------------------------------------------------ *)
(* drivers                                                             *)
(* ------------------------------------------------------------------ *)

let launches p = List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule

let program ?(measured = []) (p : program) =
  let ls = launches p in
  let launch_count k = List.length (List.filter (fun l -> l.l_kernel = k) ls) in
  let per_launch =
    List.concat_map
      (fun l ->
        match Absint.analyze_launch p l with
        | None -> []
        | Some r ->
            let k = r.Absint.res_kernel in
            List.concat_map (access_findings p.p_name k) r.Absint.res_accesses
            @ List.concat_map (guard_findings p.p_name k) r.Absint.res_guards
            @ footprint_findings p.p_name k ~launch_count:(launch_count k)
                ~measured:(List.assoc_opt k measured) r)
      ls
  in
  normalize per_launch

let programs ?(jobs = 1) ?(measured = []) (ps : program list) =
  let arr = Array.of_list ps in
  let out = Array.make (Array.length arr) [] in
  let work i =
    let p = arr.(i) in
    let m = match List.assoc_opt p.p_name measured with Some m -> m | None -> [] in
    out.(i) <- program ~measured:m p
  in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    for i = 0 to n - 1 do
      work i
    done
  else begin
    let domains =
      List.init jobs (fun j ->
          Domain.spawn (fun () ->
              let i = ref j in
              while !i < n do
                work !i;
                i := !i + jobs
              done))
    in
    List.iter Domain.join domains
  end;
  (* per-program results are already normalized; the concatenation is
     sorted again so cross-program order never depends on scheduling *)
  normalize (List.concat (Array.to_list out))

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let warnings fs = List.length (List.filter (fun f -> f.f_severity = Warn) fs)
let infos fs = List.length (List.filter (fun f -> f.f_severity = Info) fs)

(* finding count per rule, sorted by rule name: the deterministic
   per-rule counters the trace layer records for the lint pass *)
let rule_counts fs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.f_rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.f_rule)))
    fs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let render f =
  Printf.sprintf "%s:%s:%d:%d: %s [%s] %s" f.f_program f.f_kernel f.f_loc.Loc.line
    f.f_loc.Loc.col (severity_name f.f_severity) f.f_rule f.f_message

let render_human fs =
  let b = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string b (render f);
      Buffer.add_char b '\n')
    fs;
  Buffer.add_string b
    (Printf.sprintf "kft lint: %d warning%s, %d advisory note%s\n" (warnings fs)
       (if warnings fs = 1 then "" else "s")
       (infos fs)
       (if infos fs = 1 then "" else "s"));
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_json fs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"tool\":\"kft-lint\",\"version\":1,\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n  {\"program\":\"%s\",\"kernel\":\"%s\",\"line\":%d,\"col\":%d,\"severity\":\"%s\",\"rule\":\"%s\",\"message\":\"%s\"}"
           (json_escape f.f_program) (json_escape f.f_kernel) f.f_loc.Loc.line
           f.f_loc.Loc.col (severity_name f.f_severity) (json_escape f.f_rule)
           (json_escape f.f_message)))
    fs;
  Buffer.add_string b
    (Printf.sprintf "\n],\"warnings\":%d,\"infos\":%d}\n" (warnings fs) (infos fs));
  Buffer.contents b
