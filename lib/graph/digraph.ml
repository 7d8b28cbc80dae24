exception Cycle of string list
exception Duplicate_node of string
exception No_such_node of string

type 'a node = {
  mutable payload : 'a;
  mutable succs : string list; (* reverse insertion order *)
  mutable preds : string list;
  order : int; (* insertion index, for stable traversals *)
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  mutable insertions : int;
  mutable keys_rev : string list; (* insertion order, reversed *)
}

let create () = { tbl = Hashtbl.create 64; insertions = 0; keys_rev = [] }

let node g key =
  match Hashtbl.find_opt g.tbl key with
  | Some n -> n
  | None -> raise (No_such_node key)

let mem_node g key = Hashtbl.mem g.tbl key

let add_node g ~key payload =
  if mem_node g key then raise (Duplicate_node key);
  Hashtbl.replace g.tbl key
    { payload; succs = []; preds = []; order = g.insertions };
  g.insertions <- g.insertions + 1;
  g.keys_rev <- key :: g.keys_rev

let ensure_node g ~key payload = if not (mem_node g key) then add_node g ~key payload

let payload g key = (node g key).payload

let mem_edge g a b =
  match Hashtbl.find_opt g.tbl a with
  | None -> false
  | Some n -> List.mem b n.succs

let add_edge g a b =
  let na = node g a and nb = node g b in
  if not (List.mem b na.succs) then begin
    na.succs <- b :: na.succs;
    nb.preds <- a :: nb.preds
  end

let succs g key = List.rev (node g key).succs

let preds g key = List.rev (node g key).preds

let nodes g = List.rev g.keys_rev

let node_count g = Hashtbl.length g.tbl

let edges g =
  List.concat_map (fun a -> List.map (fun b -> (a, b)) (succs g a)) (nodes g)

let edge_count g = List.length (edges g)

let iter_nodes g ~f = List.iter (fun k -> f k (payload g k)) (nodes g)

(* DFS restricted to [remaining]; used to produce a witness when Kahn's
   algorithm detects a cycle. *)
let find_cycle_among g remaining =
  let restricted = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace restricted k ()) remaining;
  let color = Hashtbl.create 16 in
  (* 1 = on stack, 2 = done *)
  let exception Found of string list in
  let rec dfs path k =
    match Hashtbl.find_opt color k with
    | Some 1 ->
        (* [path] holds the DFS stack most-recent-first; prepending while
           walking back to [k] restores chronological (edge) order *)
        let rec cut acc = function
          | [] -> k :: acc
          | x :: _ when x = k -> k :: acc
          | x :: tl -> cut (x :: acc) tl
        in
        raise (Found (cut [] path))
    | Some _ -> ()
    | None ->
        Hashtbl.replace color k 1;
        List.iter (fun s -> if Hashtbl.mem restricted s then dfs (k :: path) s) (succs g k);
        Hashtbl.replace color k 2
  in
  try
    List.iter (fun k -> dfs [] k) remaining;
    (* unreachable: callers guarantee a cycle among [remaining] *)
    assert false
  with Found c -> c

(* ready nodes ordered by insertion index; the indices are unique, so the
   key never takes part in the comparison *)
module Frontier = Set.Make (struct
  type t = int * string

  let compare (a, _) (b, _) = Int.compare a b
end)

(* Kahn's algorithm with a stable frontier: among ready nodes always pick
   the one with the smallest insertion index. O((V + E) log V). *)
let topo_sort g =
  let indeg = Hashtbl.create 64 in
  let ready k frontier = Frontier.add ((node g k).order, k) frontier in
  let frontier =
    List.fold_left
      (fun frontier k ->
        let d = List.length (node g k).preds in
        Hashtbl.replace indeg k d;
        if d = 0 then ready k frontier else frontier)
      Frontier.empty (nodes g)
  in
  let rec loop acc frontier =
    match Frontier.min_elt_opt frontier with
    | None ->
        if Hashtbl.length indeg = 0 then List.rev acc
        else
          (* remaining nodes all sit on cycles or downstream of one;
             report one cycle *)
          let remaining = Hashtbl.fold (fun k _ l -> k :: l) indeg [] in
          raise (Cycle (find_cycle_among g remaining))
    | Some ((_, k) as min) ->
        Hashtbl.remove indeg k;
        let frontier =
          List.fold_left
            (fun frontier s ->
              match Hashtbl.find_opt indeg s with
              | Some d ->
                  Hashtbl.replace indeg s (d - 1);
                  if d = 1 then ready s frontier else frontier
              | None -> frontier)
            (Frontier.remove min frontier) (succs g k)
        in
        loop (k :: acc) frontier
  in
  loop [] frontier

let is_dag g = match topo_sort g with (_ : string list) -> true | exception Cycle _ -> false

let reachable g ~src ~dst =
  let seen = Hashtbl.create 16 in
  let rec go k =
    k = dst
    ||
    if Hashtbl.mem seen k then false
    else begin
      Hashtbl.replace seen k ();
      List.exists go (succs g k)
    end
  in
  ignore (node g src);
  ignore (node g dst);
  go src

let neighbors g k = succs g k @ preds g k

let bfs g ~root =
  ignore (node g root);
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen root ();
  let q = Queue.create () in
  Queue.add root q;
  let out = ref [] in
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    out := k :: !out;
    let visit n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.replace seen n ();
        Queue.add n q
      end
    in
    List.iter visit (neighbors g k)
  done;
  List.rev !out

let components g =
  let seen = Hashtbl.create 16 in
  let comps = ref [] in
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then begin
        let comp = bfs g ~root:k in
        List.iter (fun n -> Hashtbl.replace seen n ()) comp;
        comps := comp :: !comps
      end)
    (nodes g);
  List.rev !comps

let quotient g ~group_of =
  let q = create () in
  iter_nodes g ~f:(fun k p -> ensure_node q ~key:(group_of k) p);
  List.iter
    (fun (a, b) ->
      let ga = group_of a and gb = group_of b in
      if ga <> gb then add_edge q ga gb)
    (edges g);
  q

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let attrs_to_string = function
  | [] -> ""
  | attrs ->
      let body =
        List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (dot_escape v)) attrs
        |> String.concat ", "
      in
      Printf.sprintf " [%s]" body

let to_dot ?(graph_name = "G") ?(node_attrs = fun _ _ -> []) ?(edge_attrs = fun _ _ -> []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" graph_name);
  iter_nodes g ~f:(fun k p ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\"%s;\n" (dot_escape k) (attrs_to_string (node_attrs k p))));
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\"%s;\n" (dot_escape a) (dot_escape b)
           (attrs_to_string (edge_attrs a b))))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
