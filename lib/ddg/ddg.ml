open Kft_cuda.Ast
module G = Kft_graph.Digraph
module Schedflow = Kft_schedflow.Schedflow

type invocation = {
  inv_key : string;
  inv_kernel : string;
  inv_index : int;
  inv_launch : launch;
}

type node =
  | Kernel_node of invocation
  | Array_node of { base : string; version : int }

(* Fixed-width bitsets over node indices, [Sys.int_size] bits a word. *)
module Bits = struct
  let create n = Array.make ((n + Sys.int_size - 1) / Sys.int_size) 0

  let add b i = b.(i / Sys.int_size) <- b.(i / Sys.int_size) lor (1 lsl (i mod Sys.int_size))

  let mem b i = b.(i / Sys.int_size) land (1 lsl (i mod Sys.int_size)) <> 0

  let union_into dst src = Array.iteri (fun w x -> dst.(w) <- dst.(w) lor x) src
end

(* Reachability closure of the OEG: node [i] is the [i]-th invocation;
   [desc.(i)] / [anc.(i)] hold the nodes reachable from / reaching [i]
   through at least one edge. Read-only once built. *)
type closure = { desc : int array array; anc : int array array }

type t = {
  ddg : node G.t;
  invocations : invocation list;
  versioned_arrays : (string * int) list;
  oeg : int list array;
  closure : closure;
}

let invocations prog =
  let counts = Hashtbl.create 16 in
  List.filter_map (function Launch l -> Some l | _ -> None) prog.p_schedule
  |> List.mapi (fun i l ->
         let n = Option.value ~default:0 (Hashtbl.find_opt counts l.l_kernel) in
         Hashtbl.replace counts l.l_kernel (n + 1);
         let inv_key = if n = 0 then l.l_kernel else Printf.sprintf "%s#%d" l.l_kernel (n + 1) in
         { inv_key; inv_kernel = l.l_kernel; inv_index = i; inv_launch = l })

(* [succs.(i)] lists the invocations that depend directly on invocation
   [i], every one later than [i] in the schedule, so one sweep in each
   direction closes the relation. *)
let close succs =
  let n = Array.length succs in
  let desc = Array.init n (fun _ -> Bits.create n) in
  let anc = Array.init n (fun _ -> Bits.create n) in
  (* [reach.(i)] gains [j] and everything [j] already reaches *)
  let extend reach i j =
    Bits.add reach.(i) j;
    Bits.union_into reach.(i) reach.(j)
  in
  for i = n - 1 downto 0 do
    List.iter (fun j -> assert (j > i); extend desc i j) succs.(i)
  done;
  for i = 0 to n - 1 do
    List.iter (fun j -> extend anc j i) succs.(i)
  done;
  { desc; anc }

let array_key base version =
  if version = 0 then base else Printf.sprintf "%s@%d" base version

let of_schedflow (sf : Schedflow.t) =
  let invocations = invocations sf.program in
  let launch_ops = List.filter (fun (op : Schedflow.op) -> op.op_launch <> None) sf.ops in
  let ddg = G.create () in
  (* multi-writer versioning: current version per array; a write by a
     second (or later) distinct invocation bumps the version, creating a
     redundant instance *)
  let version : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let writers : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let max_version : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let ensure_array base v =
    let key = array_key base v in
    G.ensure_node ddg ~key (Array_node { base; version = v });
    key
  in
  List.iter2
    (fun inv (op : Schedflow.op) ->
      G.add_node ddg ~key:inv.inv_key (Kernel_node inv);
      List.iter
        (fun (a, _) ->
          let v = Option.value ~default:0 (Hashtbl.find_opt version a) in
          let key = ensure_array a v in
          G.add_edge ddg key inv.inv_key)
        op.op_reads;
      List.iter
        (fun (a, _) ->
          let prev_writers = Option.value ~default:[] (Hashtbl.find_opt writers a) in
          let v =
            if prev_writers = [] || List.mem inv.inv_key prev_writers then
              Option.value ~default:0 (Hashtbl.find_opt version a)
            else begin
              (* a distinct second writer: redundant instance *)
              let v = Option.value ~default:0 (Hashtbl.find_opt max_version a) + 1 in
              Hashtbl.replace max_version a v;
              Hashtbl.replace version a v;
              v
            end
          in
          Hashtbl.replace writers a (inv.inv_key :: prev_writers);
          let key = ensure_array a v in
          G.add_edge ddg inv.inv_key key)
        op.op_writes)
    invocations launch_ops;
  let versioned_arrays =
    Hashtbl.fold (fun a v acc -> (a, v + 1) :: acc) max_version [] |> List.sort compare
  in
  (* OEG: every launch pair with a RAW / WAR / WAW dependence whose end
     regions are not proved disjoint. The host invocation order orients
     each one, which is exactly the cycle-breaking heuristic of Section
     3.2.3. *)
  let ops = Array.of_list sf.ops in
  let succs = Array.make (List.length invocations) [] in
  List.iter
    (fun (d : Schedflow.dep) ->
      match (ops.(d.dep_src).op_launch, ops.(d.dep_dst).op_launch) with
      | Some a, Some b -> (
          (* sorted by (src, dst): a repeated pair is adjacent *)
          match succs.(a) with
          | b' :: _ when b' = b -> ()
          | l -> succs.(a) <- b :: l)
      | _ -> ())
    sf.deps;
  let succs = Array.map List.rev succs in
  let closure = close succs in
  (* transitive reduction for readability (the DOT files the programmer
     inspects): drop i -> j when another direct successor of i reaches j.
     No node reaches itself in a DAG, so the union over all of i's
     successors names only the others. Reachability, and so the
     closure, is unchanged. *)
  let oeg =
    Array.map
      (fun js ->
        let implied = Bits.create (Array.length succs) in
        List.iter (fun k -> Bits.union_into implied closure.desc.(k)) js;
        List.filter (fun j -> not (Bits.mem implied j)) js)
      succs
  in
  { ddg; invocations; versioned_arrays; oeg; closure }

let build prog = of_schedflow (Schedflow.analyze prog)

let oeg_precedes t i j = i <> j && Bits.mem t.closure.desc.(i) j

(* Contracting [group] closes a cycle iff some node outside the group
   lies on a path between two members: a descendant of one member that
   is also an ancestor of one. *)
let fusion_feasible t group =
  let c = t.closure in
  let n = Array.length c.desc in
  let members = Bits.create n and below = Bits.create n and above = Bits.create n in
  List.iter
    (fun i ->
      Bits.add members i;
      Bits.union_into below c.desc.(i);
      Bits.union_into above c.anc.(i))
    group;
  Array.iteri (fun w m -> below.(w) <- below.(w) land above.(w) land lnot m) members;
  Array.for_all (fun w -> w = 0) below

let node_attrs _key = function
  | Kernel_node inv -> [ ("shape", "box"); ("label", inv.inv_key) ]
  | Array_node { base; version } ->
      [
        ("shape", "ellipse");
        ("label", if version = 0 then base else Printf.sprintf "%s (copy %d)" base version);
        ("style", "dashed");
      ]

let ddg_dot t = G.to_dot ~graph_name:"DDG" ~node_attrs:(fun k p -> node_attrs k p) t.ddg

let oeg_edge_count t = Array.fold_left (fun n js -> n + List.length js) 0 t.oeg

(* the OEG's nodes and edges in invocation order, rendered as
   [Kft_graph.Digraph.to_dot] renders the DDG *)
let oeg_dot t =
  let g = G.create () in
  List.iter (fun inv -> G.add_node g ~key:inv.inv_key (Kernel_node inv)) t.invocations;
  let keys = Array.of_list (List.map (fun inv -> inv.inv_key) t.invocations) in
  Array.iteri (fun i js -> List.iter (fun j -> G.add_edge g keys.(i) keys.(j)) js) t.oeg;
  G.to_dot ~graph_name:"OEG" ~node_attrs:(fun k p -> node_attrs k p) g
