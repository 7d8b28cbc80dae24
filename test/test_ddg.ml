(* DDG / OEG construction (Algorithm 1) and graph optimizations. *)

open Kft_cuda.Ast
module D = Kft_ddg.Ddg
module G = Kft_graph.Digraph
module Sf = Kft_schedflow.Schedflow

let prog = Util.producer_consumer_program ()

(* the closure queries take invocation indices; the tests name keys *)
let index (g : D.t) k =
  (List.find (fun (i : D.invocation) -> i.inv_key = k) g.invocations).inv_index

let precedes g a b = D.oeg_precedes g (index g a) (index g b)
let feasible g keys = D.fusion_feasible g (List.map (index g) keys)

(* the OEG's edges as invocation key pairs, in invocation order *)
let oeg_edges (g : D.t) =
  let key = Array.of_list (List.map (fun (i : D.invocation) -> i.inv_key) g.invocations) in
  List.concat
    (Array.to_list (Array.mapi (fun i js -> List.map (fun j -> (key.(i), key.(j))) js) g.oeg))

(* the DDG's array neighbours of an invocation are Schedflow's access
   sets of its launch, in the order the kernel body first uses them
   (the DOT files list edges in that order) *)
let test_arrays_touched () =
  let sf = Sf.analyze prog in
  let reads i = List.map fst (List.nth sf.ops i).Sf.op_reads in
  Alcotest.(check (list string)) "produce reads" [ "A" ] (reads 0);
  Alcotest.(check (list string)) "produce writes" [ "B" ]
    (List.map fst (List.hd sf.ops).op_writes);
  Alcotest.(check (list string)) "consume reads in body order" [ "B"; "A" ] (reads 1);
  let g = D.of_schedflow sf in
  Alcotest.(check (list string)) "DDG preds" [ "B"; "A" ] (G.preds g.ddg "consume");
  Alcotest.(check (list string)) "DDG succs" [ "B" ] (G.succs g.ddg "produce")

let test_ddg_structure () =
  let g = D.build prog in
  (* nodes: produce, consume, A, B, C *)
  Alcotest.(check int) "5 ddg nodes" 5 (G.node_count g.ddg);
  Alcotest.(check bool) "A -> produce" true (G.mem_edge g.ddg "A" "produce");
  Alcotest.(check bool) "produce -> B" true (G.mem_edge g.ddg "produce" "B");
  Alcotest.(check bool) "B -> consume" true (G.mem_edge g.ddg "B" "consume");
  Alcotest.(check bool) "consume -> C" true (G.mem_edge g.ddg "consume" "C")

let test_oeg_precedence () =
  let g = D.build prog in
  Alcotest.(check bool) "produce before consume" true (precedes g "produce" "consume");
  Alcotest.(check bool) "not the reverse" false (precedes g "consume" "produce");
  Alcotest.(check bool) "not itself" false (precedes g "produce" "produce");
  Alcotest.check_raises "index past the schedule" (Invalid_argument "index out of bounds")
    (fun () -> ignore (D.oeg_precedes g 2 0))

let chain_prog n =
  (* k_i : X_i -> X_{i+1}, a pointwise chain *)
  let dims = (8, 4, 2) in
  let src =
    String.concat "\n"
      (List.init n (fun i ->
           Util.pointwise_src ~name:(Printf.sprintf "k%d" i)
             ~a:(Printf.sprintf "X%d" i)
             ~b:(Printf.sprintf "X%d" i)
             ~dst:(Printf.sprintf "X%d" (i + 1))))
  in
  {
    p_name = "chain";
    p_arrays = List.init (n + 1) (fun i -> Util.arr3 dims (Printf.sprintf "X%d" i));
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      List.init n (fun i ->
          Launch
            {
              l_kernel = Printf.sprintf "k%d" i;
              l_domain = (8, 4, 1);
              l_block = (8, 4, 1);
              l_args =
                Util.std_args dims
                  [ Printf.sprintf "X%d" i; Printf.sprintf "X%d" i; Printf.sprintf "X%d" (i + 1) ]
                  0.5;
            });
  }

let test_transitive_reduction () =
  let g = D.build (chain_prog 4) in
  (* the OEG of a chain is exactly the chain after reduction *)
  Alcotest.(check int) "3 edges" 3 (D.oeg_edge_count g);
  Alcotest.(check bool) "k0 still precedes k3 transitively" true (precedes g "k0" "k3")

let test_fusion_feasible () =
  let g = D.build (chain_prog 4) in
  Alcotest.(check bool) "adjacent pair" true (feasible g [ "k0"; "k1" ]);
  Alcotest.(check bool) "whole chain" true (feasible g [ "k0"; "k1"; "k2"; "k3" ]);
  (* skipping the middle creates a path out and back: infeasible *)
  Alcotest.(check bool) "k0+k2 infeasible" false (feasible g [ "k0"; "k2" ]);
  Alcotest.(check bool) "singleton trivially ok" true (feasible g [ "k1" ])

(* [Util.halves_program]: [lo] writes the lower half of X, [mid] reads
   it, [hi] writes the upper half. Schedflow proves the regions and
   refines the WAR mid -> hi and the WAW lo -> hi away, so the OEG
   orders only lo -> mid. *)
let test_refined_dependence_not_ordered () =
  let sf = Sf.analyze (Util.halves_program ()) in
  Alcotest.(check int) "one region-refined dependence" 1 (List.length sf.deps);
  Alcotest.(check int) "two refined away" 2 sf.stats.st_deps_refined;
  let g = D.of_schedflow sf in
  Alcotest.(check (list (pair string string))) "OEG edges" [ ("lo", "mid") ] (oeg_edges g);
  Alcotest.(check bool) "lo does not precede hi" false (precedes g "lo" "hi");
  Alcotest.(check bool) "mid does not precede hi" false (precedes g "mid" "hi")

(* so [lo] and [hi] may fuse around [mid] *)
let test_refined_group_legal () =
  let g = D.build (Util.halves_program ()) in
  Alcotest.(check bool) "lo+hi feasible" true (feasible g [ "lo"; "hi" ]);
  Alcotest.(check bool) "lo+mid+hi feasible" true (feasible g [ "lo"; "mid"; "hi" ])

let multi_writer_prog () =
  let dims = (8, 4, 2) in
  let src =
    Util.pointwise_src ~name:"w1" ~a:"A" ~b:"A" ~dst:"X"
    ^ Util.pointwise_src ~name:"r1" ~a:"X" ~b:"A" ~dst:"Y"
    ^ Util.pointwise_src ~name:"w2" ~a:"B" ~b:"B" ~dst:"X"
    ^ Util.pointwise_src ~name:"r2" ~a:"X" ~b:"B" ~dst:"Z"
  in
  {
    p_name = "mw";
    p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "X"; "Y"; "Z" ];
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      List.map
        (fun (k, args) ->
          Launch
            { l_kernel = k; l_domain = (8, 4, 1); l_block = (8, 4, 1);
              l_args = Util.std_args dims args 0.5 })
        [
          ("w1", [ "A"; "A"; "X" ]);
          ("r1", [ "X"; "A"; "Y" ]);
          ("w2", [ "B"; "B"; "X" ]);
          ("r2", [ "X"; "B"; "Z" ]);
        ];
  }

let test_multi_writer_versioning () =
  let g = D.build (multi_writer_prog ()) in
  (* X is written by w1 and w2: a redundant instance is created *)
  Alcotest.(check bool) "X versioned" true (List.mem_assoc "X" g.versioned_arrays);
  Alcotest.(check bool) "X@1 node exists" true (G.mem_node g.ddg "X@1");
  (* the second reader must read the second instance *)
  Alcotest.(check bool) "r2 reads X@1" true (G.mem_edge g.ddg "X@1" "r2");
  Alcotest.(check bool) "r1 reads original X" true (G.mem_edge g.ddg "X" "r1")

let test_repeated_invocation_keys () =
  let p = chain_prog 2 in
  let p = { p with p_schedule = p.p_schedule @ [ List.hd p.p_schedule ] } in
  let g = D.build p in
  Alcotest.(check (list string)) "keys" [ "k0"; "k1"; "k0#2" ]
    (List.map (fun (i : D.invocation) -> i.inv_key) g.invocations);
  Alcotest.(check bool) "k1 before k0#2 (WAR on X1)" true (precedes g "k1" "k0#2")

(* host copies are schedule ops but not invocations: [inv_index] counts
   launches only, and [invocations] (a schedule walk) assigns the keys
   and positions the analysed DDG uses *)
let test_invocations_skip_copies () =
  let p = Util.producer_consumer_program () in
  let produce = Util.launch_of p "produce" and consume = Util.launch_of p "consume" in
  let p =
    { p with
      p_schedule =
        [ Copy_to_device "A"; Launch produce; Launch consume; Copy_to_host "C";
          Launch produce ] }
  in
  let walk = D.invocations p in
  let summary = List.map (fun (i : D.invocation) -> (i.inv_key, i.inv_kernel, i.inv_index)) in
  Alcotest.(check (list (triple string string int))) "keys and launch positions"
    [ ("produce", "produce", 0); ("consume", "consume", 1); ("produce#2", "produce", 2) ]
    (summary walk);
  let g = D.build p in
  Alcotest.(check (list (triple string string int))) "same as the analysed DDG"
    (summary walk) (summary g.invocations);
  Alcotest.(check bool) "consume before produce#2 (WAR on B)" true
    (precedes g "consume" "produce#2")

(* a launch whose kernel is not in the program reads and writes nothing:
   it is a node of both graphs with no edges, and the others keep theirs *)
let test_unresolved_launch () =
  let p = Util.producer_consumer_program () in
  let ghost = { (Util.launch_of p "produce") with l_kernel = "ghost" } in
  let g = D.build { p with p_schedule = p.p_schedule @ [ Launch ghost ] } in
  Alcotest.(check (list string)) "OEG nodes" [ "produce"; "consume"; "ghost" ]
    (List.map (fun (i : D.invocation) -> i.inv_key) g.invocations);
  Alcotest.(check (list string)) "no DDG preds" [] (G.preds g.ddg "ghost");
  Alcotest.(check (list string)) "no DDG succs" [] (G.succs g.ddg "ghost");
  Alcotest.(check (list (pair string string))) "OEG edges" [ ("produce", "consume") ]
    (oeg_edges g)

let test_dot_outputs () =
  let g = D.build prog in
  let ddg_dot = D.ddg_dot g and oeg_dot = D.oeg_dot g in
  Alcotest.(check bool) "ddg dot nonempty" true (String.length ddg_dot > 50);
  Alcotest.(check bool) "oeg dot nonempty" true (String.length oeg_dot > 30);
  let has_line dot line = List.mem line (String.split_on_char '\n' dot) in
  Alcotest.(check bool) "oeg edge line" true (has_line oeg_dot "  \"produce\" -> \"consume\";");
  Alcotest.(check bool) "ddg read edge line" true (has_line ddg_dot "  \"A\" -> \"produce\";")

(* Random launch orders over a few shared arrays: three pointwise
   kernels, each launch binding its two inputs and its output to random
   host arrays. Re-launches give "#n" keys; in-place launches (output
   also an input) and launches with no common array occur too. *)
let random_schedule_gen =
  let arrays = [| "A"; "B"; "C"; "D"; "E" |] and kernels = [| "ka"; "kb"; "kc" |] in
  QCheck.Gen.(
    list_size (int_range 1 10)
      (quad (int_bound 2) (int_bound 4) (int_bound 4) (int_bound 4)))
  |> QCheck.Gen.map (fun launches ->
         List.map
           (fun (k, a, b, d) -> (kernels.(k), [ arrays.(a); arrays.(b); arrays.(d) ]))
           launches)

let random_schedule_program launches =
  let dims = (8, 4, 2) in
  let src =
    String.concat ""
      (List.map (fun k -> Util.pointwise_src ~name:k ~a:"P" ~b:"Q" ~dst:"R") [ "ka"; "kb"; "kc" ])
  in
  {
    p_name = "random";
    p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "C"; "D"; "E" ];
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      List.map
        (fun (k, args) ->
          Launch
            { l_kernel = k; l_domain = (8, 4, 1); l_block = (8, 4, 1);
              l_args = Util.std_args dims args 0.5 })
        launches;
  }

(* a random schedule plus random picks into its invocation keys for the
   group; picks past the keys are dropped, and repeated picks give
   duplicates *)
let schedule_and_picks_arb =
  QCheck.make
    ~print:(fun (launches, picks) ->
      Printf.sprintf "schedule=[%s] picks=[%s]"
        (String.concat "; "
           (List.map (fun (k, args) -> k ^ "(" ^ String.concat "," args ^ ")") launches))
        (String.concat "," (List.map string_of_int picks)))
    QCheck.Gen.(pair random_schedule_gen (list_size (int_bound 6) (int_bound 13)))

(* launch pairs (a, b) such that a chain of Schedflow's launch
   dependences leads from a to b: Floyd-Warshall over the direct pairs *)
let dependence_chains (sf : Sf.t) n =
  let ops = Array.of_list sf.ops in
  let reach = Array.make_matrix n n false in
  List.iter
    (fun (d : Sf.dep) ->
      match (ops.(d.dep_src).op_launch, ops.(d.dep_dst).op_launch) with
      | Some a, Some b -> reach.(a).(b) <- true
      | _ -> ())
    sf.deps;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  reach

(* does [src] reach [dst] through at least one of [edges]? *)
let reaches edges src dst =
  let seen = Hashtbl.create 16 in
  let rec go k =
    List.exists
      (fun (a, b) ->
        a = k
        && (b = dst
           || (not (Hashtbl.mem seen b))
              && begin
                   Hashtbl.replace seen b ();
                   go b
                 end))
      edges
  in
  go src

(* property: the closure test agrees with contracting the group in the
   OEG's edge list and looking for a quotient node that reaches itself,
   and [oeg_precedes] with a search over those edges and with chains of
   Schedflow's launch dependences; the OEG is a minimal transitive
   reduction; and every launch dependence is ordered by the OEG *)
let prop_closure_matches_quotient =
  QCheck.Test.make ~name:"fusion_feasible = acyclic OEG quotient" ~count:300
    schedule_and_picks_arb
    (fun (launches, picks) ->
      let sf = Sf.analyze (random_schedule_program launches) in
      let g = D.of_schedflow sf in
      let keys = List.map (fun (i : D.invocation) -> i.inv_key) g.invocations in
      let key = Array.of_list keys in
      let chains = dependence_chains sf (Array.length key) in
      let group = List.filter_map (List.nth_opt keys) picks in
      let edges = oeg_edges g in
      let group_of k = if List.mem k group then "__fused__" else k in
      let quotient =
        List.filter_map
          (fun (a, b) -> if group_of a = group_of b then None else Some (group_of a, group_of b))
          edges
      in
      feasible g group = not (List.exists (fun (a, _) -> reaches quotient a a) quotient)
      && List.for_all
           (fun a -> List.for_all (fun b -> precedes g a b = reaches edges a b) keys)
           keys
      && Array.for_all Fun.id
           (Array.mapi
              (fun a row ->
                Array.for_all Fun.id
                  (Array.mapi (fun b chained -> D.oeg_precedes g a b = chained) row))
              chains)
      && List.for_all
           (fun (a, b) ->
             not
               (List.exists
                  (fun (a', c) -> a' = a && c <> b && reaches edges c b)
                  edges))
           edges
      && List.for_all (fun (a, b, _) -> D.oeg_precedes g a b) (Sf.launch_deps sf))

let suite =
  [
    Alcotest.test_case "arrays touched" `Quick test_arrays_touched;
    Alcotest.test_case "DDG structure (Algorithm 1)" `Quick test_ddg_structure;
    Alcotest.test_case "OEG precedence" `Quick test_oeg_precedence;
    Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
    Alcotest.test_case "fusion feasibility" `Quick test_fusion_feasible;
    Alcotest.test_case "refined dependence not ordered" `Quick
      test_refined_dependence_not_ordered;
    Alcotest.test_case "group legal only under refined deps" `Quick test_refined_group_legal;
    Alcotest.test_case "multi-writer versioning" `Quick test_multi_writer_versioning;
    Alcotest.test_case "repeated invocation keys" `Quick test_repeated_invocation_keys;
    Alcotest.test_case "invocations skip host copies" `Quick test_invocations_skip_copies;
    Alcotest.test_case "unresolved launch has no edges" `Quick test_unresolved_launch;
    Alcotest.test_case "DOT outputs" `Quick test_dot_outputs;
    QCheck_alcotest.to_alcotest prop_closure_matches_quotient;
  ]
