open Kft_cuda.Ast

type t = {
  flops_per_thread : float;
  global_reads_per_thread : float;
  global_writes_per_thread : float;
  dependent_chain : int;
}

let rec flops_of_assignment e =
  match e with
  | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> 0
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> 1 + flops_of_assignment a + flops_of_assignment b
  | Binop (_, a, b) -> flops_of_assignment a + flops_of_assignment b
  | Unop (_, a) -> flops_of_assignment a
  | Index (_, _) -> 0 (* addressing arithmetic is integer work, not FLOPs *)
  | Call ("fma", args) -> 2 + List.fold_left (fun acc a -> acc + flops_of_assignment a) 0 args
  | Call (("sqrt" | "exp" | "log" | "pow" | "sin" | "cos" | "fabs"), args) ->
      (* transcendental: count as several flops, matching profiler convention *)
      4 + List.fold_left (fun acc a -> acc + flops_of_assignment a) 0 args
  | Call (_, args) -> List.fold_left (fun acc a -> acc + flops_of_assignment a) 0 args
  | Ternary (c, a, b) ->
      flops_of_assignment c + max (flops_of_assignment a) (flops_of_assignment b)

let rec reads_in_expr e =
  match e with
  | Index (_, [ _ ]) -> 1
  | Index (_, idxs) -> List.fold_left (fun acc i -> acc + reads_in_expr i) 0 idxs
  | Binop (_, a, b) -> reads_in_expr a + reads_in_expr b
  | Unop (_, a) -> reads_in_expr a
  | Call (_, args) -> List.fold_left (fun acc a -> acc + reads_in_expr a) 0 args
  | Ternary (c, a, b) -> reads_in_expr c + reads_in_expr a + reads_in_expr b
  | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> 0

(* Longest chain of dependent arithmetic ops through scalar temporaries.
   [depths] maps a scalar to the chain depth of its current value. *)
let rec expr_chain depths e =
  match e with
  | Int_lit _ | Double_lit _ | Builtin _ -> 0
  | Var v -> ( match Hashtbl.find_opt depths v with Some d -> d | None -> 0)
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> 1 + max (expr_chain depths a) (expr_chain depths b)
  | Binop (_, a, b) -> max (expr_chain depths a) (expr_chain depths b)
  | Unop (_, a) -> expr_chain depths a
  | Index (_, _) -> 1 (* a load feeding the chain *)
  | Call (("sqrt" | "exp" | "log" | "pow" | "sin" | "cos"), args) ->
      4 + List.fold_left (fun acc a -> max acc (expr_chain depths a)) 0 args
  | Call (_, args) -> 1 + List.fold_left (fun acc a -> max acc (expr_chain depths a)) 0 args
  | Ternary (c, a, b) ->
      max (expr_chain depths c) (max (expr_chain depths a) (expr_chain depths b))

let of_kernel (k : kernel) (env : Access.launch_env) =
  let trip lo hi step bindings =
    match (Absint.const_of_expr ~bindings lo, Absint.const_of_expr ~bindings hi) with
    | Some l, Some h -> max 1 ((h - l + step - 1) / step)
    | _ -> 1
  in
  let depths = Hashtbl.create 16 in
  let flops = ref 0.0 and reads = ref 0.0 and writes = ref 0.0 in
  let chain = ref 0 in
  let rec walk mult cond_weight bindings stmts =
    List.iter
      (fun s ->
        match s with
        | Decl (ty, v, Some e) ->
            (* integer declarations are index plumbing, not floating work *)
            if ty = Double then
              flops := !flops +. (mult *. cond_weight *. float_of_int (flops_of_assignment e));
            reads := !reads +. (mult *. cond_weight *. float_of_int (reads_in_expr e));
            Hashtbl.replace depths v (expr_chain depths e);
            chain := max !chain (Hashtbl.find depths v)
        | Decl (_, v, None) -> Hashtbl.replace depths v 0
        | Assign (lv, e) ->
            flops := !flops +. (mult *. cond_weight *. float_of_int (flops_of_assignment e));
            reads := !reads +. (mult *. cond_weight *. float_of_int (reads_in_expr e));
            let d = expr_chain depths e in
            (match lv with
            | Lvar v ->
                Hashtbl.replace depths v d;
                chain := max !chain d
            | Lindex (_, [ _ ]) ->
                writes := !writes +. (mult *. cond_weight);
                chain := max !chain d
            | Lindex (_, idxs) ->
                reads := !reads +. (mult *. cond_weight *. float_of_int (List.fold_left (fun a i -> a + reads_in_expr i) 0 idxs));
                chain := max !chain d)
        | If (c, t, e) ->
            reads := !reads +. (mult *. cond_weight *. float_of_int (reads_in_expr c));
            (* interior conditionals: average the branches *)
            let w = if e = [] then cond_weight else cond_weight *. 0.5 in
            walk mult w bindings t;
            walk mult (cond_weight *. 0.5) bindings e
        | For l ->
            let n = trip l.lo l.hi l.step bindings in
            (* a sequential loop multiplies the chain as well *)
            let before = !chain in
            walk (mult *. float_of_int n) cond_weight ((l.index, 0) :: bindings) l.body;
            let body_chain = !chain - before in
            if body_chain > 0 then chain := before + (body_chain * min n 64)
        | Shared_decl _ | Syncthreads | Return -> ())
      stmts
  in
  walk 1.0 1.0 env.int_args k.k_body;
  {
    flops_per_thread = !flops;
    global_reads_per_thread = !reads;
    global_writes_per_thread = !writes;
    dependent_chain = !chain;
  }

let estimate_registers (k : kernel) =
  let decls = fold_stmts (fun acc s -> match s with Decl _ -> acc + 1 | _ -> acc) 0 k.k_body in
  let arrays = List.length (referenced_arrays k) in
  let rec expr_depth e =
    match e with
    | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> 1
    | Binop (_, a, b) -> 1 + max (expr_depth a) (expr_depth b)
    | Unop (_, a) -> 1 + expr_depth a
    | Index (_, idxs) | Call (_, idxs) -> 1 + List.fold_left (fun acc i -> max acc (expr_depth i)) 0 idxs
    | Ternary (c, a, b) -> 1 + max (expr_depth c) (max (expr_depth a) (expr_depth b))
  in
  let depth =
    fold_exprs_in_stmts (fun acc e -> max acc (expr_depth e)) 0 k.k_body
  in
  (* register allocators reuse registers aggressively: live ranges grow
     with distinct arrays and expression depth but far sublinearly with
     declaration count *)
  let est = 18 + (3 * arrays / 2) + (decls / 2) + min depth 16 in
  max 18 (min 128 est)
