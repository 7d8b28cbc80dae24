(* Defect injector: seeds known defect classes into the quickstart and
   the six bundled applications and records which check catches each
   one.

   Classes:
   - drop-barrier: one [__syncthreads()] removed from a fused,
     shared-memory-staged kernel emitted by the pipeline;
   - widen-halo: the first constant offset of one stencil read grows by
     one (source kernels);
   - neighbour-cell: an in-place update [P[s] = f(P[s])] reads, or
     writes, [P[s + 1]] instead (source kernels);
   - swap-launches: two adjacent dependent launches of the transformed
     schedule trade places, judged through [Verify.validate].

   A defect is caught by the static proof (any kft_verify diagnostic),
   by the output check alone ([Profiler.verify] of the mutated launches
   against the unmutated ones, a failed run included), or by nothing.
   A mutation that nothing catches and on which the exhaustive oracle
   finds no race and no out-of-bounds access changes no behaviour: it
   is counted as benign, not as a miss.

   Print the table with [dune exec test/test_main.exe -- test defects -v]. *)

open Kft_cuda.Ast
module V = Kft_verify.Verify
module F = Kft_framework.Framework
module Codegen = Kft_codegen.Codegen
module Schedflow = Kft_schedflow.Schedflow

type verdict = Proof | Output | Benign | Missed

let verdict_name = function
  | Proof -> "proof"
  | Output -> "output check"
  | Benign -> "benign"
  | Missed -> "MISSED"

type defect = { cls : string; prog : string; site : string; verdict : verdict }

let config =
  {
    F.default_config with
    verify_mode = F.Verify_advisory;
    gga_params = { Kft_gga.Gga.default_params with population = 10; generations = 8 };
  }

let launches p = List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule

let with_kernel p k =
  { p with p_kernels = List.map (fun k' -> if k'.k_name = k.k_name then k else k') p.p_kernels }

(* [kernels]: the launches the output check runs, from the same seeded
   memory on both sides (all of them when [None]) *)
let judge ?kernels ~reference ~mutated ~real (r : V.report) =
  let only p =
    match kernels with
    | None -> p
    | Some ks ->
        { p with p_schedule = List.filter (function Launch l -> List.mem l.l_kernel ks | _ -> false) p.p_schedule }
  in
  if not (V.is_clean r) then Proof
  else
    match Kft_sim.Profiler.verify Util.device ~original:(only reference) ~transformed:(only mutated) with
    | Error _ | (exception _) -> Output
    | Ok () -> if real () then Missed else Benign

(* the exhaustive oracle finds a race or an out-of-bounds access in a
   launch of kernel [name] *)
let oracle_finds p name () =
  List.exists (fun l -> l.l_kernel = name && Race_oracle.walk p l <> []) (launches p)

(* verify only the launches of the mutated kernel *)
let verify_kernel p name =
  List.fold_left
    (fun acc l -> if l.l_kernel = name then V.merge acc (V.verify_launch p l) else acc)
    V.empty_report (launches p)

let first_and_last = function
  | [] -> []
  | [ x ] -> [ x ]
  | x :: rest -> [ x; List.nth rest (List.length rest - 1) ]

(* [expr_rewriter f]: a rewriter that replaces the first expression, in
   evaluation order, that [f] changes, and a flag telling whether it did *)
let expr_rewriter f =
  let hit = ref false in
  let rec expr e =
    if !hit then e
    else
      match f e with
      | Some e' ->
          hit := true;
          e'
      | None -> (
          match e with
          | Binop (op, a, b) ->
              let a = expr a in
              Binop (op, a, expr b)
          | Unop (op, a) -> Unop (op, expr a)
          | Index (a, idxs) -> Index (a, List.map expr idxs)
          | Call (fn, args) -> Call (fn, List.map expr args)
          | Ternary (c, a, b) ->
              let c = expr c in
              let a = expr a in
              Ternary (c, a, expr b)
          | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> e)
  in
  (hit, expr)

(* the same over the values a body computes (store subscripts excluded);
   [None] when nothing changed *)
let rewrite_first f body =
  let hit, expr = expr_rewriter f in
  let rec stmts ss = List.map stmt ss
  and stmt s =
    match s with
    | Decl (ty, v, Some e) -> Decl (ty, v, Some (expr e))
    | Assign (lv, e) -> Assign (lv, expr e)
    | If (c, t, e) ->
        let c = expr c in
        let t = stmts t in
        If (c, t, stmts e)
    | For l ->
        let lo = expr l.lo in
        let hi = expr l.hi in
        For { l with lo; hi; body = stmts l.body }
    | Decl _ | Shared_decl _ | Syncthreads | Return -> s
  in
  let body' = stmts body in
  if !hit then Some body' else None

(* the kernels launched by [p] that [mutate] changes, in schedule order,
   with their mutated bodies *)
let mutable_kernels p mutate =
  List.fold_left (fun acc l -> if List.mem l.l_kernel acc then acc else l.l_kernel :: acc) [] (launches p)
  |> List.rev
  |> List.filter_map (fun name ->
         let k = find_kernel p name in
         Option.map (fun body -> (k, body)) (mutate k.k_body))

(* ---------------- drop-barrier ---------------- *)

let drop_barrier n body =
  let seen = ref (-1) in
  let rec go ss =
    List.filter_map
      (fun s ->
        match s with
        | Syncthreads ->
            incr seen;
            if !seen = n then None else Some s
        | If (c, t, e) ->
            let t = go t in
            Some (If (c, t, go e))
        | For l -> Some (For { l with body = go l.body })
        | s -> Some s)
      ss
  in
  go body

let barriers body = fold_stmts (fun n s -> if s = Syncthreads then n + 1 else n) 0 body

let drop_barrier_defects name (rep : F.report) =
  let out = rep.transformed in
  rep.codegen.reports
  |> List.filter (fun (r : Codegen.kernel_report) -> r.fusion_kind <> `None && r.staged_arrays <> [])
  |> first_and_last
  |> List.concat_map (fun (r : Codegen.kernel_report) ->
         let k = find_kernel out r.new_kernel in
         List.init (barriers k.k_body) (fun n ->
             let mutated = with_kernel out { k with k_body = drop_barrier n k.k_body } in
             {
               cls = "drop-barrier";
               prog = name;
               site = Printf.sprintf "%s barrier %d" k.k_name n;
               verdict =
                 judge ~kernels:[ k.k_name ] ~reference:out ~mutated ~real:(oracle_finds mutated k.k_name)
                   (verify_kernel mutated k.k_name);
             }))

(* ---------------- widen-halo ---------------- *)

let widen_read = function
  | Index (a, idxs) ->
      let hit, expr =
        expr_rewriter (function
          | Binop (((Add | Sub) as op), x, Int_lit c) when c > 0 -> Some (Binop (op, x, Int_lit (c + 1)))
          | _ -> None)
      in
      let idxs = List.map expr idxs in
      if !hit then Some (Index (a, idxs)) else None
  | _ -> None

let source_defects ~cls name p mutate =
  mutable_kernels p mutate |> first_and_last
  |> List.map (fun ((k : kernel), body) ->
         let mutated = with_kernel p { k with k_body = body } in
         {
           cls;
           prog = name;
           site = k.k_name;
           verdict =
             judge ~kernels:[ k.k_name ] ~reference:p ~mutated ~real:(oracle_finds mutated k.k_name)
               (verify_kernel mutated k.k_name);
         })

(* ---------------- neighbour-cell ---------------- *)

(* the first in-place own-cell update [a[i] = f(a[i])], its read or its
   write moved to cell [i + 1] *)
let neighbour ~move_write body =
  let hit = ref false in
  let on_stmt s =
    match s with
    | Assign (Lindex (a, [ i ]), e) when not !hit ->
        let own = function Index (b, [ j ]) -> b = a && equal_expr i j | _ -> false in
        let next = Binop (Add, i, Int_lit 1) in
        let moved, rewrite = expr_rewriter (fun e -> if own e then Some (Index (a, [ next ])) else None) in
        let e' = rewrite e in
        if not !moved then s
        else begin
          hit := true;
          if move_write then Assign (Lindex (a, [ next ]), e) else Assign (Lindex (a, [ i ]), e')
        end
    | s -> s
  in
  let body' = map_stmts on_stmt body in
  if !hit then Some body' else None

(* ---------------- swap-launches ---------------- *)

let post_fission p (r : F.report) =
  match List.filter (fun (k, _) -> List.mem k r.fissioned) r.fission_plans with
  | [] -> p
  | plans -> Kft_fission.Fission.apply_to_program ~plans p

let swap_at i xs =
  List.mapi (fun j x -> if j = i then List.nth xs (i + 1) else if j = i + 1 then List.nth xs i else x) xs

(* codegen emits one report per launch, in schedule order: a swap keeps
   the two in step, as a generator that reordered launches would *)
let swap_defects name source (rep : F.report) =
  let out = rep.transformed in
  let ls = launches out in
  if List.length ls <> List.length rep.codegen.reports then []
  else
    Schedflow.launch_deps (Schedflow.analyze out)
    |> List.filter_map (fun (i, j, _) -> if j = i + 1 then Some i else None)
    |> List.sort_uniq compare |> first_and_last
    |> List.map (fun i ->
           let rest = List.filter (function Launch _ -> false | _ -> true) out.p_schedule in
           let mutated = { out with p_schedule = List.map (fun l -> Launch l) (swap_at i ls) @ rest } in
           let cg = { Codegen.program = mutated; reports = swap_at i rep.codegen.reports } in
           {
             cls = "swap-launches";
             prog = name;
             site = Printf.sprintf "%s <-> %s" (List.nth ls i).l_kernel (List.nth ls (i + 1)).l_kernel;
             verdict =
               judge ~reference:out ~mutated ~real:(fun () -> true)
                 (V.validate ~options:config.codegen_options ~source:(post_fission source rep) cg);
           })

(* ---------------- the corpus ---------------- *)

let classes = [ "drop-barrier"; "widen-halo"; "neighbour-cell"; "swap-launches" ]

let corpus () =
  List.concat_map
    (fun (a : Kft_apps.Apps.app) ->
      let p = a.program and name = a.app_name in
      let rep = F.transform ~config p in
      if not (V.is_clean (V.verify_program p) && V.is_clean rep.verify_report) then
        Alcotest.failf "%s does not verify clean before injection" name;
      drop_barrier_defects name rep
      @ source_defects ~cls:"widen-halo" name p (rewrite_first widen_read)
      @ source_defects ~cls:"neighbour-cell" name p (neighbour ~move_write:false)
      @ source_defects ~cls:"neighbour-cell" name p (neighbour ~move_write:true)
      @ swap_defects name p rep)
    (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ())

let test_every_defect_caught () =
  let ds = corpus () in
  List.iter
    (fun d -> Printf.printf "%-14s %-12s %-30s %s\n" d.cls d.prog d.site (verdict_name d.verdict))
    ds;
  print_endline "\nclass          injected  proof  output  benign  missed";
  List.iter
    (fun cls ->
      let of_cls = List.filter (fun d -> d.cls = cls) ds in
      let n v = List.length (List.filter (fun d -> d.verdict = v) of_cls) in
      Printf.printf "%-14s %8d  %5d  %6d  %6d  %6d\n" cls (List.length of_cls) (n Proof) (n Output)
        (n Benign) (n Missed);
      Alcotest.(check bool) (cls ^ ": some defect injected") true (of_cls <> []))
    classes;
  List.iter
    (fun d -> if d.verdict = Missed then Alcotest.failf "%s in %s (%s) is missed" d.cls d.prog d.site)
    ds

let suite = [ Alcotest.test_case "every injected defect is caught" `Quick test_every_defect_caught ]
