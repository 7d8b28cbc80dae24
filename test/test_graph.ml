(* Digraph substrate tests (structure, traversals, DOT) and the OEG
   contraction the search and the schedule share. *)

module G = Kft_graph.Digraph

(* [contract n edges label]: the framework's contraction of nodes
   [0 .. n-1] with the given edges; [label] defaults to one quotient
   node per node *)
let contract ?label n edges =
  let succs =
    Array.init n (fun v -> List.filter_map (fun (a, b) -> if a = v then Some b else None) edges)
  in
  let label = match label with Some l -> Array.of_list l | None -> Array.init n Fun.id in
  Kft_framework.Framework.Internal.contract succs label

let order = Alcotest.(option (list (list int)))

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
  Alcotest.check order "topo" (Some [ [ 0 ]; [ 1 ]; [ 2 ] ]) (contract 3 [ (0, 1); (1, 2); (0, 2) ])

let test_topo_stable () =
  (* among ready nodes the lowest goes first: 2 -> 0 holds 0 back *)
  Alcotest.check order "schedule order" (Some [ [ 0 ]; [ 1 ]; [ 2 ] ]) (contract 3 []);
  Alcotest.check order "lowest ready first" (Some [ [ 1 ]; [ 2 ]; [ 0 ] ]) (contract 3 [ (2, 0) ])

let test_cycle_detection () =
  Alcotest.check order "cyclic" None (contract 3 [ (0, 1); (1, 2); (2, 0) ])

let test_self_loop_cycle () =
  (* an edge inside one quotient node drops out *)
  Alcotest.check order "self loop dropped" (Some [ [ 0 ] ]) (contract 1 [ (0, 0) ]);
  Alcotest.check order "group-internal edge dropped" (Some [ [ 0; 1 ] ])
    (contract ~label:[ 7; 7 ] 2 [ (0, 1) ])

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
  Alcotest.check order "0+1 then 2" (Some [ [ 0; 1 ]; [ 2 ] ])
    (contract ~label:[ 0; 0; 2 ] 3 [ (0, 1); (1, 2) ]);
  (* quotient nodes are numbered by the first occurrence of their label *)
  Alcotest.check order "first occurrence" (Some [ [ 0; 2 ]; [ 1 ] ])
    (contract ~label:[ 5; 3; 5 ] 3 [])

let test_quotient_cycle () =
  (* 0 -> 1 -> 2 with 0 and 2 grouped: the contraction is cyclic *)
  Alcotest.check order "cyclic quotient" None
    (contract ~label:[ 0; 1; 0; 3 ] 4 [ (0, 1); (1, 2); (2, 3) ])

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

(* property: with one quotient node per node, the order respects every
   edge of a random DAG *)
let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topo order respects edges" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      (* orient all edges low -> high: always a DAG *)
      let edges =
        List.filter_map (fun (a, b) -> if a = b then None else Some (min a b, max a b)) pairs
      in
      match contract 20 edges with
      | None -> false
      | Some order ->
          let pos = Array.make 20 (-1) in
          List.iteri (fun i q -> List.iter (fun v -> pos.(v) <- i) q) order;
          List.for_all (fun (a, b) -> pos.(a) < pos.(b)) edges)

(* Stable Kahn written out plainly: quotient nodes numbered by the first
   occurrence of their label, and every step scans them all for the
   lowest one whose quotient predecessors are all emitted. *)
let reference_contract n edges label =
  let label = Array.of_list label in
  let firsts =
    List.fold_left (fun acc v -> if List.mem label.(v) acc then acc else acc @ [ label.(v) ]) []
      (List.init n Fun.id)
  in
  (* the position of [v]'s label among the first occurrences *)
  let q v =
    let rec find i = function
      | x :: rest -> if x = label.(v) then i else find (i + 1) rest
      | [] -> assert false
    in
    find 0 firsts
  and nq = List.length firsts in
  let qedges = List.filter_map (fun (a, b) -> if q a = q b then None else Some (q a, q b)) edges in
  let ready emitted x =
    (not (List.mem x emitted)) && List.for_all (fun (a, b) -> b <> x || List.mem a emitted) qedges
  in
  let rec loop emitted acc =
    if List.length emitted = nq then Some (List.rev acc)
    else
      match List.find_opt (ready emitted) (List.init nq Fun.id) with
      | None -> None
      | Some x -> loop (x :: emitted) (List.filter (fun v -> q v = x) (List.init n Fun.id) :: acc)
  in
  loop [] []

(* a random graph over nodes [0 .. n-1] with a random label per node;
   [~dag] orients every edge by a random rank unrelated to the node
   order, parallel edges included *)
let random_contraction_gen ~dag =
  QCheck.Gen.(
    int_range 1 16 >>= fun n ->
    shuffle_l (List.init n Fun.id) >>= fun rank ->
    list_repeat n (int_bound (n - 1)) >>= fun label ->
    list_size (int_bound (3 * n)) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    >|= fun pairs ->
    let rank = Array.of_list rank in
    let edges =
      List.filter_map
        (fun (a, b) ->
          if not dag then Some (a, b)
          else if rank.(a) < rank.(b) then Some (a, b)
          else if rank.(b) < rank.(a) then Some (b, a)
          else None)
        pairs
    in
    (n, edges, label))

let random_contraction_arb ~dag =
  QCheck.make
    ~print:(fun (n, edges, label) ->
      Printf.sprintf "n=%d edges=[%s] labels=[%s]" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges))
        (String.concat ";" (List.map string_of_int label)))
    (random_contraction_gen ~dag)

(* property: on random DAGs with random groupings the contraction gives
   the reference order, and a cycle exactly when the reference does *)
let prop_contract_matches_reference_dag =
  QCheck.Test.make ~name:"contract = stable Kahn on DAGs" ~count:300
    (random_contraction_arb ~dag:true)
    (fun (n, edges, label) -> contract ~label n edges = reference_contract n edges label)

(* property: the same on arbitrary graphs, cycles and self loops included *)
let prop_contract_matches_reference_cyclic =
  QCheck.Test.make ~name:"contract = stable Kahn, cyclic" ~count:300
    (random_contraction_arb ~dag:false)
    (fun (n, edges, label) -> contract ~label n edges = reference_contract n edges label)

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
    Alcotest.test_case "bfs is undirected" `Quick test_bfs_undirected;
    Alcotest.test_case "weak components" `Quick test_components;
    Alcotest.test_case "quotient collapse" `Quick test_quotient_collapse;
    Alcotest.test_case "quotient cycle" `Quick test_quotient_cycle;
    Alcotest.test_case "dot round trip" `Quick test_dot_roundtrip;
    Alcotest.test_case "dot node attributes" `Quick test_dot_attrs;
    QCheck_alcotest.to_alcotest prop_topo_respects_edges;
    QCheck_alcotest.to_alcotest prop_contract_matches_reference_dag;
    QCheck_alcotest.to_alcotest prop_contract_matches_reference_cyclic;
    QCheck_alcotest.to_alcotest prop_components_partition;
  ]
