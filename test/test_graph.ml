(* Digraph substrate tests: structure, traversals, quotient, DOT. *)

module G = Kft_graph.Digraph

let mk edges nodes =
  let g = G.create () in
  List.iter (fun n -> G.add_node g ~key:n ()) nodes;
  List.iter (fun (a, b) -> G.add_edge g a b) edges;
  g

let test_add_and_query () =
  let g = mk [ ("a", "b"); ("b", "c") ] [ "a"; "b"; "c" ] in
  Alcotest.(check int) "node count" 3 (G.node_count g);
  Alcotest.(check int) "edge count" 2 (G.edge_count g);
  Alcotest.(check bool) "edge a->b" true (G.mem_edge g "a" "b");
  Alcotest.(check bool) "no edge b->a" false (G.mem_edge g "b" "a");
  Alcotest.(check (list string)) "succs of a" [ "b" ] (G.succs g "a");
  Alcotest.(check (list string)) "preds of c" [ "b" ] (G.preds g "c")

let test_duplicate_node () =
  let g = G.create () in
  G.add_node g ~key:"x" ();
  Alcotest.check_raises "duplicate raises" (G.Duplicate_node "x") (fun () ->
      G.add_node g ~key:"x" ())

let test_no_such_node () =
  let g = G.create () in
  G.add_node g ~key:"x" ();
  Alcotest.check_raises "missing endpoint" (G.No_such_node "y") (fun () -> G.add_edge g "x" "y")

let test_ensure_node_idempotent () =
  let g = G.create () in
  G.ensure_node g ~key:"x" 1;
  G.ensure_node g ~key:"x" 2;
  Alcotest.(check int) "payload kept" 1 (G.payload g "x")

let test_add_edge_idempotent () =
  let g = mk [ ("a", "b"); ("a", "b") ] [ "a"; "b" ] in
  Alcotest.(check int) "single edge" 1 (G.edge_count g)

let test_topo_order () =
  let g = mk [ ("a", "b"); ("b", "c"); ("a", "c") ] [ "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "topo" [ "a"; "b"; "c" ] (G.topo_sort g)

let test_topo_stable () =
  (* independent nodes keep insertion order *)
  let g = mk [] [ "z"; "m"; "a" ] in
  Alcotest.(check (list string)) "insertion order" [ "z"; "m"; "a" ] (G.topo_sort g)

let test_cycle_detection () =
  let g = mk [ ("a", "b"); ("b", "c"); ("c", "a") ] [ "a"; "b"; "c" ] in
  Alcotest.(check bool) "is_dag false" false (G.is_dag g);
  match G.topo_sort g with
  | (_ : string list) -> Alcotest.fail "topo_sort should raise"
  | exception G.Cycle cycle ->
      Alcotest.(check bool) "cycle has 3 nodes" true (List.length cycle = 3);
      (* consecutive edges (with wraparound) must exist *)
      let ok =
        List.for_all2
          (fun a b -> G.mem_edge g a b)
          cycle
          (List.tl cycle @ [ List.hd cycle ])
      in
      Alcotest.(check bool) "witness edges exist" true ok

let test_self_loop_cycle () =
  let g = mk [ ("a", "a") ] [ "a" ] in
  Alcotest.(check bool) "self loop cyclic" false (G.is_dag g)

let test_reachable () =
  let g = mk [ ("a", "b"); ("b", "c") ] [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check bool) "a reaches c" true (G.reachable g ~src:"a" ~dst:"c");
  Alcotest.(check bool) "c not a" false (G.reachable g ~src:"c" ~dst:"a");
  Alcotest.(check bool) "self" true (G.reachable g ~src:"a" ~dst:"a");
  Alcotest.(check bool) "disconnected" false (G.reachable g ~src:"a" ~dst:"d")

let test_bfs_undirected () =
  let g = mk [ ("a", "b"); ("c", "b") ] [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check (list (list string))) "reaches through both directions"
    [ [ "a"; "b"; "c" ]; [ "d" ] ] (G.components g)

let test_components () =
  let g = mk [ ("a", "b"); ("c", "d") ] [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check int) "three components" 3 (List.length (G.components g));
  Alcotest.(check (list (list string))) "component contents"
    [ [ "a"; "b" ]; [ "c"; "d" ]; [ "e" ] ]
    (G.components g)

let test_quotient_collapse () =
  let g = mk [ ("a", "b"); ("b", "c") ] [ "a"; "b"; "c" ] in
  let q = G.quotient g ~group_of:(fun k -> if k = "a" || k = "b" then "g" else k) in
  Alcotest.(check int) "two nodes" 2 (G.node_count q);
  Alcotest.(check bool) "no self loop" false (G.mem_edge q "g" "g");
  Alcotest.(check bool) "edge kept" true (G.mem_edge q "g" "c")

let test_quotient_cycle () =
  (* a -> x -> b with a,b grouped: quotient must be cyclic *)
  let g = mk [ ("a", "x"); ("x", "b"); ("b", "y") ] [ "a"; "x"; "b"; "y" ] in
  let q = G.quotient g ~group_of:(fun k -> if k = "a" || k = "b" then "g" else k) in
  Alcotest.(check bool) "cyclic quotient" false (G.is_dag q)

let test_dot_roundtrip () =
  let g = mk [ ("k 1", "arr"); ("arr", "k\"2") ] [ "k 1"; "arr"; "k\"2" ] in
  let lines = String.split_on_char '\n' (G.to_dot g) in
  (* keys come back quoted and escaped, one edge per line *)
  Alcotest.(check (list string)) "edge lines"
    [ "  \"k 1\" -> \"arr\";"; "  \"arr\" -> \"k\\\"2\";" ]
    (List.filter (fun l -> String.length l > 6 && String.contains l '>') lines)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_dot_attrs () =
  let g = mk [ ("a", "b") ] [ "a"; "b" ] in
  let dot = G.to_dot ~node_attrs:(fun k () -> [ ("label", k ^ "!") ]) g in
  Alcotest.(check bool) "label emitted" true (contains dot "label=\"a!\"")

(* property: topological order respects every edge of a random DAG *)
let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topo order respects edges" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let g = G.create () in
      for i = 0 to 19 do
        G.add_node g ~key:(string_of_int i) ()
      done;
      (* orient all edges low -> high: always a DAG *)
      List.iter
        (fun (a, b) ->
          if a <> b then
            let lo, hi = (min a b, max a b) in
            G.add_edge g (string_of_int lo) (string_of_int hi))
        pairs;
      let order = G.topo_sort g in
      let pos = List.mapi (fun i k -> (k, i)) order in
      List.for_all
        (fun (a, b) -> a = b || List.assoc (string_of_int (min a b)) pos < List.assoc (string_of_int (max a b)) pos)
        pairs)

(* The quadratic Kahn's algorithm [G.topo_sort] replaced: every step
   scans the whole in-degree table for the ready node with the smallest
   insertion index. Kept here as the reference the new frontier must
   match, witness cycles included. *)
let reference_find_cycle_among g remaining =
  let restricted = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace restricted k ()) remaining;
  let color = Hashtbl.create 16 in
  let exception Found of string list in
  let rec dfs path k =
    match Hashtbl.find_opt color k with
    | Some 1 ->
        let rec cut acc = function
          | [] -> k :: acc
          | x :: _ when x = k -> k :: acc
          | x :: tl -> cut (x :: acc) tl
        in
        raise (Found (cut [] path))
    | Some _ -> ()
    | None ->
        Hashtbl.replace color k 1;
        List.iter (fun s -> if Hashtbl.mem restricted s then dfs (k :: path) s) (G.succs g k);
        Hashtbl.replace color k 2
  in
  try
    List.iter (fun k -> dfs [] k) remaining;
    assert false
  with Found c -> c

let reference_topo_sort g =
  let order = Hashtbl.create 64 in
  List.iteri (fun i k -> Hashtbl.replace order k i) (G.nodes g);
  let indeg = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace indeg k (List.length (G.preds g k))) (G.nodes g);
  let ready () =
    let best = ref None in
    Hashtbl.iter
      (fun k d ->
        if d = 0 then
          match !best with
          | Some b when Hashtbl.find order b < Hashtbl.find order k -> ()
          | _ -> best := Some k)
      indeg;
    !best
  in
  let rec loop acc =
    match ready () with
    | None ->
        if Hashtbl.length indeg = 0 then List.rev acc
        else
          let remaining = Hashtbl.fold (fun k _ l -> k :: l) indeg [] in
          raise (G.Cycle (reference_find_cycle_among g remaining))
    | Some k ->
        Hashtbl.remove indeg k;
        List.iter
          (fun s ->
            match Hashtbl.find_opt indeg s with
            | Some d -> Hashtbl.replace indeg s (d - 1)
            | None -> ())
          (G.succs g k);
        loop (k :: acc)
  in
  loop []

(* a random graph: [n] nodes inserted in a shuffled key order, plus edges
   between node indices; [~dag] orients every edge by a random rank
   unrelated to insertion order *)
let random_graph_gen ~dag =
  QCheck.Gen.(
    int_range 1 16 >>= fun n ->
    shuffle_l (List.init n Fun.id) >>= fun keys ->
    shuffle_l (List.init n Fun.id) >>= fun rank ->
    list_size (int_bound (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun pairs ->
    let key i = Printf.sprintf "n%d" (List.nth keys i) and rank = Array.of_list rank in
    let edges =
      List.filter_map
        (fun (a, b) ->
          if not dag then Some (key a, key b)
          else if rank.(a) < rank.(b) then Some (key a, key b)
          else if rank.(b) < rank.(a) then Some (key b, key a)
          else None)
        pairs
    in
    (List.init n key, edges))

let random_graph_arb ~dag =
  QCheck.make
    ~print:(fun (nodes, edges) ->
      Printf.sprintf "nodes=[%s] edges=[%s]" (String.concat ";" nodes)
        (String.concat ";" (List.map (fun (a, b) -> a ^ "->" ^ b) edges)))
    (random_graph_gen ~dag)

let topo_outcome f g = match f g with order -> Ok order | exception G.Cycle c -> Error c

(* property: on random DAGs the frontier topo_sort returns exactly the
   reference order *)
let prop_topo_matches_reference_dag =
  QCheck.Test.make ~name:"topo_sort = quadratic reference on DAGs" ~count:300
    (random_graph_arb ~dag:true)
    (fun (nodes, edges) ->
      let g = mk edges nodes in
      G.topo_sort g = reference_topo_sort g)

(* property: on arbitrary graphs both raise Cycle with the same witness,
   and the witness is a real cycle of the graph *)
let prop_topo_matches_reference_cyclic =
  QCheck.Test.make ~name:"topo_sort cycle witness = reference" ~count:300
    (random_graph_arb ~dag:false)
    (fun (nodes, edges) ->
      let g = mk edges nodes in
      let got = topo_outcome G.topo_sort g in
      got = topo_outcome reference_topo_sort g
      &&
      match got with
      | Ok _ -> true
      | Error cycle ->
          cycle <> []
          && List.for_all2 (G.mem_edge g) cycle (List.tl cycle @ [ List.hd cycle ]))

(* property: components partition the node set *)
let prop_components_partition =
  QCheck.Test.make ~name:"components partition nodes" ~count:100
    QCheck.(list (pair (int_bound 14) (int_bound 14)))
    (fun pairs ->
      let g = G.create () in
      for i = 0 to 14 do
        G.add_node g ~key:(string_of_int i) ()
      done;
      List.iter
        (fun (a, b) -> if a <> b then G.add_edge g (string_of_int a) (string_of_int b))
        pairs;
      let comps = G.components g in
      let all = List.concat comps |> List.sort compare in
      all = (G.nodes g |> List.sort compare))

let suite =
  [
    Alcotest.test_case "add and query" `Quick test_add_and_query;
    Alcotest.test_case "duplicate node" `Quick test_duplicate_node;
    Alcotest.test_case "missing node" `Quick test_no_such_node;
    Alcotest.test_case "ensure_node idempotent" `Quick test_ensure_node_idempotent;
    Alcotest.test_case "add_edge idempotent" `Quick test_add_edge_idempotent;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "topo stability" `Quick test_topo_stable;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "self loop" `Quick test_self_loop_cycle;
    Alcotest.test_case "reachability" `Quick test_reachable;
    Alcotest.test_case "bfs is undirected" `Quick test_bfs_undirected;
    Alcotest.test_case "weak components" `Quick test_components;
    Alcotest.test_case "quotient collapse" `Quick test_quotient_collapse;
    Alcotest.test_case "quotient cycle" `Quick test_quotient_cycle;
    Alcotest.test_case "dot round trip" `Quick test_dot_roundtrip;
    Alcotest.test_case "dot node attributes" `Quick test_dot_attrs;
    QCheck_alcotest.to_alcotest prop_topo_respects_edges;
    QCheck_alcotest.to_alcotest prop_topo_matches_reference_dag;
    QCheck_alcotest.to_alcotest prop_topo_matches_reference_cyclic;
    QCheck_alcotest.to_alcotest prop_components_partition;
  ]
