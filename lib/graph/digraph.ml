exception Duplicate_node of string
exception No_such_node of string

type 'a node = {
  mutable payload : 'a;
  mutable succs : string list; (* reverse insertion order *)
  mutable preds : string list;
}

type 'a t = {
  tbl : (string, 'a node) Hashtbl.t;
  mutable keys_rev : string list; (* insertion order, reversed *)
}

let create () = { tbl = Hashtbl.create 64; keys_rev = [] }

let node g key =
  match Hashtbl.find_opt g.tbl key with
  | Some n -> n
  | None -> raise (No_such_node key)

let mem_node g key = Hashtbl.mem g.tbl key

let add_node g ~key payload =
  if mem_node g key then raise (Duplicate_node key);
  Hashtbl.replace g.tbl key { payload; succs = []; preds = [] };
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
