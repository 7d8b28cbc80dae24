open Kft_cuda.Ast

type rw = Read | Write

type access = {
  array : string;
  rw : rw;
  offset : int * int * int;
}

type loop_info = {
  loop_var : string;
  trip_count : int;
  dimension : [ `Vertical | `Other ];
}

type kernel_access_info = {
  accesses : access list;
  loops : loop_info list;
  max_nest_depth : int;
  active_fraction : float;
}

type failure_reason =
  | Non_affine_index of string
  | Non_canonical_mapping of string
  | Mutated_index_variable of string
  | Unsupported_feature of string

exception Irregular of failure_reason

let reason_to_string = function
  | Non_affine_index a -> Printf.sprintf "non-affine index expression for array %s" a
  | Non_canonical_mapping a -> Printf.sprintf "non-canonical grid mapping for array %s" a
  | Mutated_index_variable v -> Printf.sprintf "index variable %s is mutated" v
  | Unsupported_feature f -> Printf.sprintf "unsupported feature: %s" f

type launch_env = {
  block : int * int * int;
  domain : int * int * int;
  int_args : (string * int) list;
  array_dims : (string * int list) list;
  param_binding : (string * string) list;
}

let env_of_launch prog (l : launch) =
  let k = find_kernel prog l.l_kernel in
  let bound = bind_args k l.l_args in
  let int_args =
    List.filter_map (function name, Arg_int v -> Some (name, v) | _ -> None) bound
  in
  let param_binding =
    List.filter_map (function name, Arg_array a -> Some (name, a) | _ -> None) bound
  in
  let array_dims =
    List.map (fun (p, a) -> (p, (find_array prog a).a_dims)) param_binding
  in
  { block = l.l_block; domain = l.l_domain; int_args; array_dims; param_binding }

(* ------------------------------------------------------------------ *)
(* Integer evaluation of index expressions under a probe assignment    *)
(* ------------------------------------------------------------------ *)

exception Not_integer of string

type probe = {
  thread : int * int * int;  (* tx, ty, tz *)
  block_idx : int * int * int;  (* bix, biy, biz *)
  bindings : (string * int) list;  (* loop vars + inlined params *)
}

let rec eval_int env e =
  match e with
  | Int_lit i -> i
  | Double_lit _ -> raise (Not_integer "double literal in index expression")
  | Var v -> (
      match List.assoc_opt v env.bindings with
      | Some i -> i
      | None -> raise (Not_integer ("unbound variable " ^ v)))
  | Builtin b ->
      let tx, ty, tz = env.thread and bix, biy, biz = env.block_idx in
      (match b with
      | Thread_idx X -> tx
      | Thread_idx Y -> ty
      | Thread_idx Z -> tz
      | Block_idx X -> bix
      | Block_idx Y -> biy
      | Block_idx Z -> biz
      | Block_dim _ | Grid_dim _ -> raise (Not_integer "blockDim/gridDim must be inlined before probing"))
  | Binop (op, a, b) -> (
      let va = eval_int env a and vb = eval_int env b in
      match op with
      | Add -> va + vb
      | Sub -> va - vb
      | Mul -> va * vb
      | Div -> if vb = 0 then raise (Not_integer "division by zero") else va / vb
      | Mod -> if vb = 0 then raise (Not_integer "mod by zero") else va mod vb
      | Lt -> if va < vb then 1 else 0
      | Le -> if va <= vb then 1 else 0
      | Gt -> if va > vb then 1 else 0
      | Ge -> if va >= vb then 1 else 0
      | Eq -> if va = vb then 1 else 0
      | Ne -> if va <> vb then 1 else 0
      | And -> if va <> 0 && vb <> 0 then 1 else 0
      | Or -> if va <> 0 || vb <> 0 then 1 else 0)
  | Unop (Neg, a) -> -eval_int env a
  | Unop (Not, a) -> if eval_int env a = 0 then 1 else 0
  | Ternary (c, a, b) -> if eval_int env c <> 0 then eval_int env a else eval_int env b
  | Call ("min", [ a; b ]) -> min (eval_int env a) (eval_int env b)
  | Call ("max", [ a; b ]) -> max (eval_int env a) (eval_int env b)
  | Call ("abs", [ a ]) -> abs (eval_int env a)
  | Call (f, _) -> raise (Not_integer ("call to " ^ f ^ " in index expression"))
  | Index _ -> raise (Not_integer "array access inside an index expression")

(* ------------------------------------------------------------------ *)
(* Preprocessing: inline immutable int declarations and blockDim       *)
(* ------------------------------------------------------------------ *)

let mutated_scalars body =
  fold_stmts (fun acc s -> match s with Assign (Lvar v, _) -> v :: acc | _ -> acc) [] body

(* Substitute blockDim by launch constants; gridDim likewise. *)
let inline_launch_dims (bx, by, bz) (gx, gy, gz) stmts =
  map_exprs_in_stmts
    (function
      | Builtin (Block_dim X) -> Int_lit bx
      | Builtin (Block_dim Y) -> Int_lit by
      | Builtin (Block_dim Z) -> Int_lit bz
      | Builtin (Grid_dim X) -> Int_lit gx
      | Builtin (Grid_dim Y) -> Int_lit gy
      | Builtin (Grid_dim Z) -> Int_lit gz
      | e -> e)
    stmts

(* Inline scalar int declarations (in declaration order) into all
   subsequent expressions. Declarations of mutated variables are left
   alone. Returns the rewritten body. *)
let inline_int_decls body =
  let mutated = mutated_scalars body in
  let subst map e =
    map_expr (function Var v when List.mem_assoc v map -> List.assoc v map | e -> e) e
  in
  (* One pass: accumulate the substitution while rewriting. Loop bodies
     are handled recursively with the map captured at loop entry. *)
  let rec go map stmts =
    match stmts with
    | [] -> []
    | s :: rest -> (
        match s with
        | Decl (Int, v, Some init) when not (List.mem v mutated) ->
            let init' = subst map init in
            let map' = (v, init') :: List.remove_assoc v map in
            Decl (Int, v, Some init') :: go map' rest
        | Decl (ty, v, init) -> Decl (ty, v, Option.map (subst map) init) :: go map rest
        | Assign (Lvar v, e) -> Assign (Lvar v, subst map e) :: go map rest
        | Assign (Lindex (a, idxs), e) ->
            Assign (Lindex (a, List.map (subst map) idxs), subst map e) :: go map rest
        | If (c, t, e) -> If (subst map c, go map t, go map e) :: go map rest
        | For l ->
            (* the loop index shadows any earlier binding *)
            let inner_map = List.remove_assoc l.index map in
            For { l with lo = subst map l.lo; hi = subst map l.hi; body = go inner_map l.body }
            :: go map rest
        | (Shared_decl _ | Syncthreads | Return) as s -> s :: go map rest)
  in
  go [] body

(* ------------------------------------------------------------------ *)
(* Affine probing                                                      *)
(* ------------------------------------------------------------------ *)

type probe_var = Tx | Ty | Tz | Bix | Biy | Biz | Loop of string

let apply_displacement base v delta =
  let tx, ty, tz = base.thread and bix, biy, biz = base.block_idx in
  match v with
  | Tx -> { base with thread = (tx + delta, ty, tz) }
  | Ty -> { base with thread = (tx, ty + delta, tz) }
  | Tz -> { base with thread = (tx, ty, tz + delta) }
  | Bix -> { base with block_idx = (bix + delta, biy, biz) }
  | Biy -> { base with block_idx = (bix, biy + delta, biz) }
  | Biz -> { base with block_idx = (bix, biy, biz + delta) }
  | Loop lv ->
      let cur = try List.assoc lv base.bindings with Not_found -> 0 in
      { base with bindings = (lv, cur + delta) :: List.remove_assoc lv base.bindings }

(* Recover affine coefficients of [e] w.r.t. the probe variables; check
   linearity with a double-step and one pairwise probe. *)
let affine_coeffs ~array base vars e =
  let f env = try eval_int env e with Not_integer _ -> raise (Irregular (Non_affine_index array)) in
  let f0 = f base in
  let coeffs =
    List.map
      (fun v ->
        let c1 = f (apply_displacement base v 1) - f0 in
        let c2 = f (apply_displacement base v 2) - f0 in
        if c2 <> 2 * c1 then raise (Irregular (Non_affine_index array));
        (v, c1))
      vars
  in
  (* pairwise cross-check on the first two vars with nonzero coeffs *)
  (match List.filter (fun (_, c) -> c <> 0) coeffs with
  | (v1, c1) :: (v2, c2) :: _ ->
      let fp = f (apply_displacement (apply_displacement base v1 1) v2 1) in
      if fp - f0 <> c1 + c2 then raise (Irregular (Non_affine_index array))
  | _ -> ());
  (f0, coeffs)

(* Decompose a constant linear offset against strides (sx, sy, sz) into
   a small (dx, dy, dz), choosing the representative nearest to zero in
   each dimension. *)
let decompose_offset ~sx:_ ~sy ~sz d =
  let div_nearest a b =
    if b = 0 then 0
    else
      let q = if a >= 0 then (a + (b / 2)) / b else -((-a + (b / 2)) / b) in
      q
  in
  let dz = if sz > 0 then div_nearest d sz else 0 in
  let r = d - (dz * sz) in
  let dy = if sy > 0 then div_nearest r sy else 0 in
  let r = r - (dy * sy) in
  let dx = r in
  (dx, dy, dz)

let dims3 dims =
  match dims with
  | [ nx ] -> (nx, 1, 1)
  | [ nx; ny ] -> (nx, ny, 1)
  | [ nx; ny; nz ] -> (nx, ny, nz)
  | _ -> (1, 1, 1)

(* ------------------------------------------------------------------ *)
(* Main analysis                                                       *)
(* ------------------------------------------------------------------ *)

type collected = {
  c_array : string;
  c_rw : rw;
  c_expr : expr;
  c_loops : string list;  (* loop vars in scope, outermost first *)
  c_depth : int;
}

let collect_accesses body =
  let out = ref [] in
  let add array rw expr loops depth = out := { c_array = array; c_rw = rw; c_expr = expr; c_loops = loops; c_depth = depth } :: !out in
  let reads_in_expr loops depth e =
    ignore
      (fold_expr
         (fun () e -> match e with Index (a, [ idx ]) -> add a Read idx loops depth | _ -> ())
         () e)
  in
  let rec walk loops depth stmts =
    List.iter
      (fun s ->
        match s with
        | Decl (_, _, Some e) -> reads_in_expr loops depth e
        | Decl (_, _, None) -> ()
        | Assign (Lvar _, e) -> reads_in_expr loops depth e
        | Assign (Lindex (a, [ idx ]), e) ->
            add a Write idx loops depth;
            reads_in_expr loops depth idx;
            reads_in_expr loops depth e
        | Assign (Lindex (a, idxs), e) ->
            (* multi-dim index: shared arrays only; analysed separately *)
            List.iter (reads_in_expr loops depth) idxs;
            reads_in_expr loops depth e;
            ignore a
        | If (c, t, els) ->
            reads_in_expr loops depth c;
            walk loops depth t;
            walk loops depth els
        | For l ->
            reads_in_expr loops depth l.lo;
            reads_in_expr loops depth l.hi;
            walk (loops @ [ l.index ]) (depth + 1) l.body
        | Shared_decl _ | Syncthreads | Return -> ())
      stmts
  in
  walk [] 0 body;
  List.rev !out

let collect_loops body int_bindings =
  let base = { thread = (0, 0, 0); block_idx = (0, 0, 0); bindings = int_bindings } in
  let out = ref [] in
  let rec walk depth stmts =
    List.iter
      (fun s ->
        match s with
        | For l ->
            let trip =
              match (eval_int base l.lo, eval_int base l.hi) with
              | lo, hi -> max 0 ((hi - lo + l.step - 1) / l.step)
              | exception Not_integer _ -> 0
            in
            out := (l.index, trip, depth) :: !out;
            walk (depth + 1) l.body
        | If (_, t, e) ->
            walk depth t;
            walk depth e
        | _ -> ())
      stmts
  in
  walk 1 body;
  List.rev !out

let max_depth body =
  let rec go depth stmts =
    List.fold_left
      (fun acc s ->
        match s with
        | For l -> max acc (go (depth + 1) l.body)
        | If (_, t, e) -> max acc (max (go depth t) (go depth e))
        | _ -> acc)
      depth stmts
  in
  go 0 body

(* Active fraction of the top-level guard, evaluated numerically. *)
let compute_active_fraction env body =
  let dx, dy, dz = env.domain in
  let guard =
    (* first If whose branches contain the bulk of the kernel: take the
       first top-level If following only declarations *)
    let rec find = function
      | Decl _ :: rest | Shared_decl _ :: rest -> find rest
      | If (c, _, []) :: _ -> Some c
      | _ -> None
    in
    find body
  in
  match guard with
  | None -> 1.0
  | Some c ->
      let bx, by, bz = env.block in
      let sample_z = if dz > 4 && dx * dy * dz > 1 lsl 18 then [ 0; dz / 2; dz - 1 ] else List.init dz (fun z -> z) in
      let active = ref 0 and total = ref 0 in
      for gx = 0 to dx - 1 do
        for gy = 0 to dy - 1 do
          List.iter
            (fun gz ->
              incr total;
              let env_probe =
                {
                  thread = (gx mod bx, gy mod by, gz mod bz);
                  block_idx = (gx / bx, gy / by, gz / bz);
                  bindings = env.int_args;
                }
              in
              match eval_int env_probe c with
              | 0 -> ()
              | _ -> incr active
              | exception Not_integer _ -> incr active)
            sample_z
        done
      done;
      if !total = 0 then 1.0 else float_of_int !active /. float_of_int !total

let analyze (k : kernel) env =
  let mutated = mutated_scalars k.k_body in
  let grid =
    let dx, dy, dz = env.domain and bx, by, bz = env.block in
    let cdiv a b = (a + b - 1) / b in
    (cdiv dx bx, cdiv dy by, cdiv dz bz)
  in
  let body = inline_launch_dims env.block grid k.k_body in
  let body = inline_int_decls body in
  let int_bindings = env.int_args in
  let shared_names =
    fold_stmts (fun acc s -> match s with Shared_decl (_, n, _) -> n :: acc | _ -> acc) [] body
  in
  let raw = collect_accesses body in
  let raw = List.filter (fun c -> not (List.mem c.c_array shared_names)) raw in
  (* any mutated scalar appearing in a global index expression is fatal *)
  List.iter
    (fun c ->
      ignore
        (fold_expr
           (fun () e ->
             match e with
             | Var v when List.mem v mutated -> raise (Irregular (Mutated_index_variable v))
             | _ -> ())
           () c.c_expr))
    raw;
  let loops = collect_loops body int_bindings in
  let base_bindings =
    int_bindings @ List.map (fun (v, _, _) -> (v, 0)) loops
  in
  let base = { thread = (0, 0, 0); block_idx = (0, 0, 0); bindings = base_bindings } in
  let bx, by, _bz = env.block in
  let loop_strides : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let accesses =
    List.map
      (fun c ->
        let dims =
          match List.assoc_opt c.c_array env.array_dims with
          | Some d -> d
          | None -> raise (Irregular (Unsupported_feature ("array " ^ c.c_array ^ " has no bound dimensions")))
        in
        let nx, ny, nz = dims3 dims in
        let sx = 1 and sy = nx and sz = nx * ny in
        ignore nz;
        let vars = [ Tx; Ty; Tz; Bix; Biy; Biz ] @ List.map (fun v -> Loop v) c.c_loops in
        let f0, coeffs = affine_coeffs ~array:c.c_array base vars c.c_expr in
        let coef v = try List.assoc v coeffs with Not_found -> 0 in
        (* thread coordinates must combine into global coordinates *)
        let check_pair ct cb bd =
          if cb <> ct * bd then raise (Irregular (Non_canonical_mapping c.c_array))
        in
        check_pair (coef Tx) (coef Bix) bx;
        check_pair (coef Ty) (coef Biy) by;
        check_pair (coef Tz) (coef Biz) _bz;
        let cgx = coef Tx and cgy = coef Ty and cgz = coef Tz in
        let valid c = c = 0 || c = sx || c = sy || c = sz in
        if not (valid cgx && valid cgy && valid cgz) then
          raise (Irregular (Non_canonical_mapping c.c_array));
        List.iter
          (fun lv ->
            let cl = coef (Loop lv) in
            if not (valid cl) then raise (Irregular (Non_canonical_mapping c.c_array));
            if cl <> 0 then Hashtbl.replace loop_strides lv (if cl = sz && nz > 1 then 3 else if cl = sy then 2 else 1))
          c.c_loops;
        let dx, dy, dz = decompose_offset ~sx ~sy ~sz f0 in
        (* sanity: reconstruct *)
        if dx + (dy * sy) + (dz * sz) <> f0 then raise (Irregular (Non_affine_index c.c_array));
        { array = c.c_array; rw = c.c_rw; offset = (dx, dy, dz) })
      raw
  in
  let loop_infos =
    List.map
      (fun (v, trip, _) ->
        let dimension =
          match Hashtbl.find_opt loop_strides v with Some 3 -> `Vertical | _ -> `Other
        in
        { loop_var = v; trip_count = trip; dimension })
      loops
  in
  {
    accesses;
    loops = loop_infos;
    max_nest_depth = max_depth body;
    active_fraction = compute_active_fraction env body;
  }

(* dead int-decl pruning after inlining: an inlined declaration is dead
   when its variable no longer occurs in any expression below it *)
let prune_dead_int_decls body =
  let var_used v stmts =
    fold_exprs_in_stmts
      (fun acc e -> acc || fold_expr (fun a e -> a || e = Var v) false e)
      false stmts
    ||
    fold_stmts
      (fun acc s -> acc || match s with Assign (Lvar x, _) -> x = v | For l -> l.index = v | _ -> false)
      false stmts
  in
  let rec go = function
    | [] -> []
    | Decl (Int, v, Some _) :: rest when not (var_used v rest) -> go rest
    | If (c, t, e) :: rest -> If (c, go t, go e) :: go rest
    | For l :: rest -> For { l with body = go l.body } :: go rest
    | s :: rest -> s :: go rest
  in
  go body

let specialize env (k : kernel) =
  let grid =
    let dx, dy, dz = env.domain and bx, by, bz = env.block in
    let cdiv a b = (a + b - 1) / b in
    (cdiv dx bx, cdiv dy by, cdiv dz bz)
  in
  let body = inline_launch_dims env.block grid k.k_body in
  let body =
    map_exprs_in_stmts
      (fun e ->
        match e with
        | Var v -> (
            match List.assoc_opt v env.int_args with Some i -> Int_lit i | None -> e)
        | e -> e)
      body
  in
  let body = inline_int_decls body in
  prune_dead_int_decls body

let affine_of_expr env ~loops e =
  let bx, by, bz = env.block in
  let base = { thread = (0, 0, 0); block_idx = (0, 0, 0); bindings = List.map (fun v -> (v, 0)) loops } in
  let vars = [ Tx; Ty; Tz; Bix; Biy; Biz ] @ List.map (fun v -> Loop v) loops in
  let f env_probe = try Some (eval_int env_probe e) with Not_integer _ -> None in
  match f base with
  | None -> None
  | Some f0 -> (
      let coeffs =
        List.fold_left
          (fun acc v ->
            match acc with
            | None -> None
            | Some acc -> (
                match (f (apply_displacement base v 1), f (apply_displacement base v 2)) with
                | Some c1v, Some c2v ->
                    let c1 = c1v - f0 and c2 = c2v - f0 in
                    if c2 <> 2 * c1 then None else Some ((v, c1) :: acc)
                | _ -> None))
          (Some []) vars
      in
      match coeffs with
      | None -> None
      | Some coeffs ->
          let coef v = try List.assoc v coeffs with Not_found -> 0 in
          (* thread/block coordinates must combine into globals *)
          if coef Bix <> coef Tx * bx || coef Biy <> coef Ty * by || coef Biz <> coef Tz * bz
          then None
          else begin
            let named =
              [ ("gx", coef Tx); ("gy", coef Ty); ("gz", coef Tz) ]
              @ List.map (fun v -> (v, coef (Loop v))) loops
            in
            Some (List.filter (fun (_, c) -> c <> 0) named, f0)
          end)

let analyze_result k env =
  match analyze k env with
  | info -> Ok info
  | exception Irregular r -> Error r

let stencil_radius info array =
  List.fold_left
    (fun (rx, ry, rz) a ->
      if a.array = array && a.rw = Read then
        let dx, dy, dz = a.offset in
        (max rx (abs dx), max ry (abs dy), max rz (abs dz))
      else (rx, ry, rz))
    (0, 0, 0) info.accesses

let read_offsets info array =
  List.filter_map (fun a -> if a.array = array && a.rw = Read then Some a.offset else None) info.accesses
  |> List.sort_uniq compare

let dedup l =
  let seen = Hashtbl.create 8 in
  List.filter (fun x -> if Hashtbl.mem seen x then false else (Hashtbl.replace seen x (); true)) l

let writes_arrays info =
  dedup (List.filter_map (fun a -> if a.rw = Write then Some a.array else None) info.accesses)

let reads_arrays info =
  dedup (List.filter_map (fun a -> if a.rw = Read then Some a.array else None) info.accesses)
