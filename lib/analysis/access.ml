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
  grid : int * int * int;
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
  { block = l.l_block; domain = l.l_domain; grid = grid_of_launch l; int_args; array_dims; param_binding }

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

let stencil_offset dims c =
  match Absint.split_offset dims c with
  | [ dx ] -> (dx, 0, 0)
  | [ dx; dy ] -> (dx, dy, 0)
  | [ dx; dy; dz ] -> (dx, dy, dz)
  | _ -> invalid_arg "Access.stencil_offset: arrays have one to three dimensions"

let rec conjuncts = function Binop (And, a, b) -> conjuncts a @ conjuncts b | c -> [ c ]

(* Fraction of the domain's cells passing the top-level guard (the first
   [If] with an empty else that follows only declarations), counted
   exactly when the guard is a box: each conjunct is decided by the
   launch, or bounds one global coordinate with coefficient +-1. Any
   other guard gets 1.0. *)
let active_fraction env body =
  let rec find = function
    | Decl _ :: rest | Shared_decl _ :: rest -> find rest
    | If (c, _, []) :: _ -> Some c
    | _ -> None
  in
  let dx, dy, dz = env.domain in
  match find body with
  | None -> 1.0
  | Some _ when dx * dy * dz = 0 -> 1.0
  | Some guard ->
      let guard =
        map_expr
          (function Var v when List.mem_assoc v env.int_args -> Int_lit (List.assoc v env.int_args) | e -> e)
          guard
      in
      let affine e = Absint.affine_of_expr ~launch:(env.block, env.grid) ~vars:[] e in
      (* the admitted cells [lo, hi] of each global coordinate *)
      let cut box g lo hi = List.map (fun (g', l, h) -> if g' = g then (g, max l lo, min h hi) else (g', l, h)) box in
      let far = 1 lsl 50 in
      let narrow box c =
        match (affine c, c) with
        | Some ([], v), _ -> Some (if v = 0 then cut box "gx" 0 (-1) (* no cell *) else box)
        | _, Binop (((Lt | Le | Gt | Ge | Eq) as op), a, b) -> (
            match affine (Binop (Sub, a, b)) with
            | Some ([ (g, s) ], v) when abs s = 1 ->
                (* s * g + v lies in [lo, hi] *)
                let lo, hi = match op with Lt -> (-far, -1) | Le -> (-far, 0) | Gt -> (1, far) | Ge -> (0, far) | _ -> (0, 0) in
                Some (if s = 1 then cut box g (lo - v) (hi - v) else cut box g (v - hi) (v - lo))
            | _ -> None)
        | _ -> None
      in
      let whole = Some [ ("gx", 0, dx - 1); ("gy", 0, dy - 1); ("gz", 0, dz - 1) ] in
      match List.fold_left (fun box c -> Option.bind box (fun box -> narrow box c)) whole (conjuncts guard) with
      | None -> 1.0
      | Some box ->
          let cells = List.fold_left (fun n (_, lo, hi) -> n * max 0 (hi - lo + 1)) 1 box in
          float_of_int cells /. float_of_int (dx * dy * dz)

(* index expressions of the global (non-shared) array accesses *)
let global_indices body =
  let shared = fold_stmts (fun acc s -> match s with Shared_decl (_, n, _) -> n :: acc | _ -> acc) [] body in
  let index acc = function Index (a, [ i ]) when not (List.mem a shared) -> i :: acc | _ -> acc in
  fold_stmts
    (fun acc s -> match s with Assign (Lindex (a, [ i ]), _) -> index acc (Index (a, [ i ])) | _ -> acc)
    (fold_exprs_in_stmts (fold_expr index) [] body)
    body

let analyze (k : kernel) env =
  let body = inline_int_decls (inline_launch_dims env.block env.grid k.k_body) in
  let mutated = mutated_scalars k.k_body in
  List.iter
    (fold_expr
       (fun () e ->
         match e with
         | Var v when List.mem v mutated -> raise (Irregular (Mutated_index_variable v))
         | _ -> ())
       ())
    (global_indices body);
  let r =
    Absint.analyze_kernel ~block:env.block ~grid:env.grid ~int_params:env.int_args
      ~global_cells:(List.map (fun (p, d) -> (p, List.fold_left ( * ) 1 d)) env.array_dims)
      k
  in
  let vertical = Hashtbl.create 4 in
  let access (a : Absint.access) =
    let array = a.acc_array in
    let irregular r = raise (Irregular r) in
    let dims =
      match List.assoc_opt array env.array_dims with
      | Some d when List.length d <= 3 -> d
      | Some d -> irregular (Unsupported_feature (Printf.sprintf "array %s has %d dimensions" array (List.length d)))
      | None -> irregular (Unsupported_feature ("array " ^ array ^ " has no bound dimensions"))
    in
    let nx, ny, nz = match dims @ [ 1; 1 ] with nx :: ny :: nz :: _ -> (nx, ny, nz) | _ -> (1, 1, 1) in
    match Option.map (Absint.global_affine ~block:env.block ~grid:env.grid) a.acc_aff with
    | None -> irregular (Non_affine_index array)
    (* every term is a global or loop coordinate along one dimension *)
    | Some (Some (terms, const)) when List.for_all (fun (_, c) -> c = 1 || c = nx || c = nx * ny) terms ->
        List.iter (fun (s, c) -> if c = nx * ny && nz > 1 then Hashtbl.replace vertical s ()) terms;
        { array; rw = (if a.acc_write then Write else Read); offset = stencil_offset dims const }
    | Some _ -> irregular (Non_canonical_mapping array)
  in
  let accesses =
    List.filter_map
      (fun (a : Absint.access) -> if a.acc_space = Absint.Global then Some (access a) else None)
      r.res_accesses
  in
  let loops =
    List.map
      (fun (l : Absint.loop) ->
        {
          loop_var = l.lp_index;
          trip_count = Option.value ~default:0 l.lp_trips;
          dimension = (if Hashtbl.mem vertical l.lp_sym then `Vertical else `Other);
        })
      r.res_loops
  in
  {
    accesses;
    loops;
    max_nest_depth = max_depth body;
    active_fraction = active_fraction env body;
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
  let body = inline_launch_dims env.block env.grid k.k_body in
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
