open Kft_cuda.Ast
module G = Kft_graph.Digraph

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
type closure = {
  index : (string, int) Hashtbl.t;
  desc : int array array;
  anc : int array array;
}

type t = {
  ddg : node G.t;
  oeg : node G.t;
  invocations : invocation list;
  versioned_arrays : (string * int) list;
  closure : closure;
}

(* Every OEG edge goes from an earlier invocation to a later one, so one
   sweep in each direction over the schedule closes the relation. *)
let close oeg invocations =
  let keys = Array.of_list (List.map (fun inv -> inv.inv_key) invocations) in
  let n = Array.length keys in
  let index = Hashtbl.create n in
  Array.iteri (fun i k -> Hashtbl.replace index k i) keys;
  let desc = Array.init n (fun _ -> Bits.create n) in
  let anc = Array.init n (fun _ -> Bits.create n) in
  (* [reach.(i)] gains [j] and everything [j] already reaches *)
  let extend reach i j =
    Bits.add reach.(i) j;
    Bits.union_into reach.(i) reach.(j)
  in
  for i = n - 1 downto 0 do
    List.iter
      (fun s ->
        let j = Hashtbl.find index s in
        assert (j > i);
        extend desc i j)
      (G.succs oeg keys.(i))
  done;
  for i = 0 to n - 1 do
    List.iter (fun p -> extend anc i (Hashtbl.find index p)) (G.preds oeg keys.(i))
  done;
  { index; desc; anc }

let dedup l =
  let seen = Hashtbl.create 8 in
  List.filter (fun x -> if Hashtbl.mem seen x then false else (Hashtbl.replace seen x (); true)) l

let arrays_touched prog (l : launch) =
  let k = find_kernel prog l.l_kernel in
  let binding = bind_args k l.l_args in
  let host p = match List.assoc_opt p binding with Some (Arg_array h) -> Some h | _ -> None in
  let shared_names =
    fold_stmts (fun acc s -> match s with Shared_decl (_, n, _) -> n :: acc | _ -> acc) [] k.k_body
  in
  let global p = not (List.mem p shared_names) in
  let reads =
    arrays_read k.k_body |> List.filter global |> List.filter_map host |> dedup
  in
  let writes =
    arrays_written k.k_body |> List.filter global |> List.filter_map host |> dedup
  in
  (reads, writes)

let array_key base version =
  if version = 0 then base else Printf.sprintf "%s@%d" base version

let build prog =
  let invocations =
    let counts = Hashtbl.create 16 in
    List.filteri (fun _ _ -> true) prog.p_schedule
    |> List.filter_map (function Launch l -> Some l | _ -> None)
    |> List.mapi (fun i l ->
           let n = Option.value ~default:0 (Hashtbl.find_opt counts l.l_kernel) in
           Hashtbl.replace counts l.l_kernel (n + 1);
           let inv_key = if n = 0 then l.l_kernel else Printf.sprintf "%s#%d" l.l_kernel (n + 1) in
           { inv_key; inv_kernel = l.l_kernel; inv_index = i; inv_launch = l })
  in
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
  List.iter
    (fun inv ->
      G.add_node ddg ~key:inv.inv_key (Kernel_node inv);
      let reads, writes = arrays_touched prog inv.inv_launch in
      List.iter
        (fun a ->
          let v = Option.value ~default:0 (Hashtbl.find_opt version a) in
          let key = ensure_array a v in
          G.add_edge ddg key inv.inv_key)
        reads;
      List.iter
        (fun a ->
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
        writes)
    invocations;
  let versioned_arrays =
    Hashtbl.fold (fun a v acc -> (a, v + 1) :: acc) max_version [] |> List.sort compare
  in
  (* OEG: RAW / WAR / WAW between invocations in schedule order; the host
     invocation order orients every dependence, which is exactly the
     cycle-breaking heuristic of Section 3.2.3 *)
  let oeg = G.create () in
  List.iter (fun inv -> G.add_node oeg ~key:inv.inv_key (Kernel_node inv)) invocations;
  let touched = List.map (fun inv -> (inv, arrays_touched prog inv.inv_launch)) invocations in
  let rec pairs = function
    | [] -> ()
    | (inv_a, (ra, wa)) :: rest ->
        List.iter
          (fun (inv_b, (rb, wb)) ->
            let inter x y = List.exists (fun e -> List.mem e y) x in
            let raw = inter wa rb in
            let war = inter ra wb in
            let waw = inter wa wb in
            if raw || war || waw then G.add_edge oeg inv_a.inv_key inv_b.inv_key)
          rest;
        pairs rest
  in
  pairs touched;
  (* transitive reduction for readability (the DOT files the programmer
     inspects); reachability is preserved *)
  let edges = G.edges oeg in
  List.iter
    (fun (a, b) ->
      G.remove_edge oeg a b;
      if not (G.reachable oeg ~src:a ~dst:b) then G.add_edge oeg a b)
    edges;
  { ddg; oeg; invocations; versioned_arrays; closure = close oeg invocations }

let node_index t k =
  match Hashtbl.find_opt t.closure.index k with
  | Some i -> i
  | None -> raise (G.No_such_node k)

let oeg_precedes t a b =
  a <> b
  &&
  let i = node_index t a and j = node_index t b in
  Bits.mem t.closure.desc.(i) j

(* Contracting [group] closes a cycle iff some node outside the group
   lies on a path between two members: a descendant of one member that
   is also an ancestor of one. *)
let fusion_feasible t group =
  let c = t.closure in
  let n = Array.length c.desc in
  let members = Bits.create n and below = Bits.create n and above = Bits.create n in
  List.iter
    (fun k ->
      match Hashtbl.find_opt c.index k with
      | Some i ->
          Bits.add members i;
          Bits.union_into below c.desc.(i);
          Bits.union_into above c.anc.(i)
      | None -> ())
    group;
  Array.iteri (fun w m -> below.(w) <- below.(w) land above.(w) land lnot m) members;
  Array.for_all (fun w -> w = 0) below

let group_has_internal_precedence t group =
  List.exists (fun a -> List.exists (fun b -> oeg_precedes t a b) group) group

let node_attrs _key = function
  | Kernel_node inv -> [ ("shape", "box"); ("label", inv.inv_key) ]
  | Array_node { base; version } ->
      [
        ("shape", "ellipse");
        ("label", if version = 0 then base else Printf.sprintf "%s (copy %d)" base version);
        ("style", "dashed");
      ]

let ddg_dot t = G.to_dot ~graph_name:"DDG" ~node_attrs:(fun k p -> node_attrs k p) t.ddg

let oeg_dot t = G.to_dot ~graph_name:"OEG" ~node_attrs:(fun k p -> node_attrs k p) t.oeg

let oeg_of_amended_dot t text =
  let known k = G.mem_node t.oeg k in
  G.of_dot_edges text |> List.filter (fun (a, b) -> known a && known b)
