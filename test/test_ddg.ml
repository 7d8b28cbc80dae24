(* DDG / OEG construction (Algorithm 1) and graph optimizations. *)

open Kft_cuda.Ast
module D = Kft_ddg.Ddg
module G = Kft_graph.Digraph

let prog = Util.producer_consumer_program ()

let test_arrays_touched () =
  let r, w = D.arrays_touched prog (Util.launch_of prog "produce") in
  Alcotest.(check (list string)) "reads" [ "A" ] r;
  Alcotest.(check (list string)) "writes" [ "B" ] w

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
  Alcotest.(check bool) "produce before consume" true (D.oeg_precedes g "produce" "consume");
  Alcotest.(check bool) "not the reverse" false (D.oeg_precedes g "consume" "produce");
  Alcotest.(check bool) "not itself" false (D.oeg_precedes g "produce" "produce");
  Alcotest.check_raises "unknown key" (G.No_such_node "ghost") (fun () ->
      ignore (D.oeg_precedes g "ghost" "produce"))

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
  Alcotest.(check int) "3 edges" 3 (G.edge_count g.oeg);
  Alcotest.(check bool) "k0 still precedes k3 transitively" true (D.oeg_precedes g "k0" "k3")

let test_fusion_feasible () =
  let g = D.build (chain_prog 4) in
  Alcotest.(check bool) "adjacent pair" true (D.fusion_feasible g [ "k0"; "k1" ]);
  Alcotest.(check bool) "whole chain" true (D.fusion_feasible g [ "k0"; "k1"; "k2"; "k3" ]);
  (* skipping the middle creates a path out and back: infeasible *)
  Alcotest.(check bool) "k0+k2 infeasible" false (D.fusion_feasible g [ "k0"; "k2" ]);
  Alcotest.(check bool) "singleton trivially ok" true (D.fusion_feasible g [ "k1" ])

let test_internal_precedence () =
  let g = D.build (chain_prog 3) in
  Alcotest.(check bool) "chain pair has precedence" true
    (D.group_has_internal_precedence g [ "k0"; "k1" ]);
  let g2 = D.build prog in
  ignore g2;
  (* two kernels writing unrelated arrays have none *)
  Alcotest.(check bool) "no precedence" false (D.group_has_internal_precedence g [ "k0" ])

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
  Alcotest.(check bool) "k0#2 key" true (G.mem_node g.oeg "k0#2")

let test_dot_outputs () =
  let g = D.build prog in
  let ddg_dot = D.ddg_dot g and oeg_dot = D.oeg_dot g in
  Alcotest.(check bool) "ddg dot nonempty" true (String.length ddg_dot > 50);
  Alcotest.(check bool) "oeg dot nonempty" true (String.length oeg_dot > 30);
  (* the amended-OEG reader accepts its own output *)
  let edges = D.oeg_of_amended_dot g oeg_dot in
  Alcotest.(check (list (pair string string))) "oeg edges" [ ("produce", "consume") ] edges

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
   group; picks past the keys name nodes that are not in the OEG, and
   repeated picks give duplicates *)
let schedule_and_picks_arb =
  QCheck.make
    ~print:(fun (launches, picks) ->
      Printf.sprintf "schedule=[%s] picks=[%s]"
        (String.concat "; "
           (List.map (fun (k, args) -> k ^ "(" ^ String.concat "," args ^ ")") launches))
        (String.concat "," (List.map string_of_int picks)))
    QCheck.Gen.(pair random_schedule_gen (list_size (int_bound 6) (int_bound 13)))

(* property: the closure test agrees with contracting the group in the
   OEG and checking the quotient for a cycle, and [oeg_precedes] with a
   DFS over the OEG *)
let prop_closure_matches_quotient =
  QCheck.Test.make ~name:"fusion_feasible = acyclic OEG quotient" ~count:300
    schedule_and_picks_arb
    (fun (launches, picks) ->
      let g = D.build (random_schedule_program launches) in
      let keys = List.map (fun (i : D.invocation) -> i.inv_key) g.invocations in
      let names = keys @ [ "ghost"; "ka#99"; "__fused__x" ] in
      let group = List.filter_map (List.nth_opt names) picks in
      let group_of k = if List.mem k group then "__fused__" else k in
      D.fusion_feasible g group = G.is_dag (G.quotient g.oeg ~group_of)
      && List.for_all
           (fun a ->
             List.for_all
               (fun b -> D.oeg_precedes g a b = (a <> b && G.reachable g.oeg ~src:a ~dst:b))
               keys)
           keys)

let suite =
  [
    Alcotest.test_case "arrays touched" `Quick test_arrays_touched;
    Alcotest.test_case "DDG structure (Algorithm 1)" `Quick test_ddg_structure;
    Alcotest.test_case "OEG precedence" `Quick test_oeg_precedence;
    Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
    Alcotest.test_case "fusion feasibility" `Quick test_fusion_feasible;
    Alcotest.test_case "internal precedence" `Quick test_internal_precedence;
    Alcotest.test_case "multi-writer versioning" `Quick test_multi_writer_versioning;
    Alcotest.test_case "repeated invocation keys" `Quick test_repeated_invocation_keys;
    Alcotest.test_case "DOT outputs" `Quick test_dot_outputs;
    QCheck_alcotest.to_alcotest prop_closure_matches_quotient;
  ]
