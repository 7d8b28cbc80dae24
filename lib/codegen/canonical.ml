open Kft_cuda.Ast
module Access = Kft_analysis.Access
module Absint = Kft_analysis.Absint

type member = {
  m_name : string;
  m_index : int;
  m_launch : launch;
  m_guard : expr option;
  m_kloop : (int * int) option;
  m_body : stmt list;
  m_domain : int * int * int;
  m_nest_depth : int;
  m_reads : (string * (int * int * int) list) list;
  m_writes : (string * (int * int * int) list) list;
  m_double_args : (string * float) list;
  m_arrays : (string * array_decl) list;
}

exception Not_canonical of string

let gi_var = "gi"
let gj_var = "gj"
let kv_var = "kv"

let wild_offset = 9999

let fail fmt = Printf.ksprintf (fun s -> raise (Not_canonical s)) fmt

(* ------------------------------------------------------------------ *)
(* Expression building helpers                                         *)
(* ------------------------------------------------------------------ *)

let add a b =
  match (a, b) with
  | Int_lit 0, e | e, Int_lit 0 -> e
  | Int_lit x, Int_lit y -> Int_lit (x + y)
  | e, Int_lit n when n < 0 -> Binop (Sub, e, Int_lit (-n))
  | a, b -> Binop (Add, a, b)

let mul c e =
  match (c, e) with
  | 0, _ -> Int_lit 0
  | 1, e -> e
  | c, Int_lit n -> Int_lit (c * n)
  | c, e -> Binop (Mul, Int_lit c, e)

let sum_terms terms const = List.fold_left add (Int_lit const) terms

let dims3 = function
  | [ nx ] -> (nx, 1, 1)
  | [ nx; ny ] -> (nx, ny, 1)
  | [ nx; ny; nz ] -> (nx, ny, nz)
  | dims -> fail "array with %d dimensions is not supported" (List.length dims)

let linear_index (decl : array_decl) ~x ~y ~z =
  let nx, ny, nz = dims3 decl.a_dims in
  let base =
    match z with
    | Some z when nz > 1 -> add (mul ny z) y
    | _ -> y
  in
  if ny > 1 || nz > 1 then add (mul nx base) x else x

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  env : Access.launch_env;
  prog : program;
  rename : (string, string) Hashtbl.t;
  kloop_var : string option;
  reads_acc : (string, (int * int * int) list) Hashtbl.t;
  writes_acc : (string, (int * int * int) list) Hashtbl.t;
}

let renamed ctx v = match Hashtbl.find_opt ctx.rename v with Some v' -> v' | None -> v

let record tbl host off =
  let cur = Option.value ~default:[] (Hashtbl.find_opt tbl host) in
  if not (List.mem off cur) then Hashtbl.replace tbl host (off :: cur)

let affine ctx ~scope e =
  Absint.affine_of_expr ~launch:(ctx.env.block, ctx.env.grid) ~vars:scope e

let var_of_coeff ctx name =
  match name with
  | "gx" -> Var gi_var
  | "gy" -> Var gj_var
  | "gz" -> fail "accesses indexed by a z thread coordinate are not canonical"
  | v -> Var (renamed ctx v)

(* canonical rewrite of one global-array index expression *)
let canon_index ctx ~scope ~param idx =
  let host =
    match List.assoc_opt param ctx.env.param_binding with
    | Some h -> h
    | None -> fail "array parameter %s is not bound to a device array" param
  in
  let decl = find_array ctx.prog host in
  let nx, ny, nz = dims3 decl.a_dims in
  let sx = 1 and sy = nx and sz = nx * ny in
  match affine ctx ~scope idx with
  | None -> fail "non-affine index for array %s" host
  | Some (coeffs, const) ->
      let xs = ref [] and ys = ref [] and zs = ref [] in
      List.iter
        (fun (name, c) ->
          let v = var_of_coeff ctx name in
          if nz > 1 && c = sz then zs := v :: !zs
          else if ny > 1 && c = sy then ys := v :: !ys
          else if c = sx then xs := v :: !xs
          else fail "stride %d of %s in array %s does not match any dimension" c name host)
        coeffs;
      let dx, dy, dz = Access.stencil_offset decl.a_dims const in
      if (ny = 1 && dy <> 0) || (nz = 1 && dz <> 0) then fail "offset decomposition failed for %s" host;
      let x = sum_terms !xs dx and y = sum_terms !ys dy in
      let z = if nz > 1 then Some (sum_terms !zs dz) else None in
      (* bookkeeping: an access swept by a loop variable other than the
         canonical coordinate is not a fixed stencil offset — record the
         wild sentinel so the fusion feasibility rules treat it as
         reaching arbitrarily far along that dimension *)
      let wild terms allowed d =
        if List.for_all (fun t -> t = allowed) terms then d else wild_offset
      in
      let dx = wild !xs (Var gi_var) dx
      and dy = wild !ys (Var gj_var) dy
      and dz = wild !zs (Var kv_var) dz in
      (host, (dx, dy, dz), linear_index decl ~x ~y ~z)

let affine_side ctx ~scope e =
  match affine ctx ~scope e with
  | Some (coeffs, const) ->
      Some (sum_terms (List.map (fun (n, c) -> mul c (var_of_coeff ctx n)) coeffs) const)
  | None -> None

(* top-down expression rewrite: global indices become canonical, scalar
   names are renamed, comparisons over affine-int sides are rebuilt *)
let rec rw_expr ctx ~scope e =
  match e with
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), l, r) -> (
      match (affine_side ctx ~scope l, affine_side ctx ~scope r) with
      | Some l', Some r' -> Binop (op, l', r')
      | _ -> Binop (op, rw_expr ctx ~scope l, rw_expr ctx ~scope r))
  | Binop (op, a, b) -> Binop (op, rw_expr ctx ~scope a, rw_expr ctx ~scope b)
  | Unop (op, a) -> Unop (op, rw_expr ctx ~scope a)
  | Index (param, [ idx ]) ->
      let host, off, canon = canon_index ctx ~scope ~param idx in
      record ctx.reads_acc host off;
      Index (host, [ canon ])
  | Index (a, _) -> fail "multi-dimensional index on global array %s" a
  | Call (f, args) -> Call (f, List.map (rw_expr ctx ~scope) args)
  | Ternary (c, a, b) -> Ternary (rw_expr ctx ~scope c, rw_expr ctx ~scope a, rw_expr ctx ~scope b)
  | Var v -> Var (renamed ctx v)
  | Int_lit _ | Double_lit _ -> e
  | Builtin _ -> (
      (* a bare thread coordinate in a value position: rebuild as affine *)
      match affine_side ctx ~scope e with
      | Some e' -> e'
      | None -> fail "thread builtin in unsupported position")

let rec rw_stmts ctx ~scope stmts = List.map (rw_stmt ctx ~scope) stmts

and rw_stmt ctx ~scope s =
  match s with
  | Decl (ty, v, init) -> Decl (ty, renamed ctx v, Option.map (rw_expr ctx ~scope) init)
  | Assign (Lvar v, e) -> Assign (Lvar (renamed ctx v), rw_expr ctx ~scope e)
  | Assign (Lindex (param, [ idx ]), e) ->
      let host, off, canon = canon_index ctx ~scope ~param idx in
      record ctx.writes_acc host off;
      Assign (Lindex (host, [ canon ]), rw_expr ctx ~scope e)
  | Assign (Lindex (a, _), _) -> fail "multi-dimensional write to global array %s" a
  | If (c, t, e) -> If (rw_expr ctx ~scope c, rw_stmts ctx ~scope t, rw_stmts ctx ~scope e)
  | For l ->
      let lo =
        match affine_side ctx ~scope l.lo with Some e -> e | None -> rw_expr ctx ~scope l.lo
      in
      let hi =
        match affine_side ctx ~scope l.hi with Some e -> e | None -> rw_expr ctx ~scope l.hi
      in
      For
        {
          index = renamed ctx l.index;
          lo;
          hi;
          step = l.step;
          body = rw_stmts ctx ~scope:(scope @ [ l.index ]) l.body;
        }
  | Shared_decl (_, n, _) -> fail "kernel already uses shared memory (%s); not fusable" n
  | Syncthreads -> fail "kernel already contains __syncthreads; not fusable"
  | Return -> fail "return statements are not canonical (use a guard)"

let collect_locals body =
  let acc = ref [] in
  let add v = if not (List.mem v !acc) then acc := v :: !acc in
  let rec go stmts =
    List.iter
      (fun s ->
        match s with
        | Decl (_, v, _) -> add v
        | For l ->
            add l.index;
            go l.body
        | If (_, t, e) ->
            go t;
            go e
        | Assign (Lvar v, _) -> add v
        | _ -> ())
      stmts
  in
  go body;
  List.rev !acc

let const_eval e =
  match Absint.const_of_expr ~bindings:[] e with
  | Some v -> v
  | None -> fail "loop bound is not a launch constant: %s" (Kft_cuda.Pp.expr e)

let extract ~deep ~index prog (l : launch) =
  let kernel = find_kernel prog l.l_kernel in
  let env = Access.env_of_launch prog l in
  let body = Access.specialize env kernel in
  let nest_depth = Access.max_depth body in
  (* split: leading double declarations, optional guard, content *)
  let rec split_decls acc = function
    | (Decl (Double, _, _) as d) :: rest -> split_decls (d :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let lead_decls, content = split_decls [] body in
  let guard, content =
    match content with
    | [ If (g, inner, []) ] -> (Some g, inner)
    | other -> (None, other)
  in
  let kloop, kloop_var, content =
    match content with
    | [ For fl ] when nest_depth < 2 || deep = `Inner_shared ->
        if fl.step <> 1 then fail "vertical loop with step %d is not canonical" fl.step;
        (Some (const_eval fl.lo, const_eval fl.hi), Some fl.index, fl.body)
    | other -> (None, None, other)
  in
  let suffix = Printf.sprintf "__m%d" (index + 1) in
  let rename = Hashtbl.create 16 in
  (match kloop_var with Some v -> Hashtbl.replace rename v kv_var | None -> ());
  List.iter
    (fun v -> if Some v <> kloop_var then Hashtbl.replace rename v (v ^ suffix))
    (collect_locals (lead_decls @ content));
  (* double scalar parameters *)
  let binding = bind_args kernel l.l_args in
  let double_args =
    List.filter_map
      (function
        | name, Arg_double v ->
            Hashtbl.replace rename name (name ^ suffix);
            Some (name ^ suffix, v)
        | _ -> None)
      binding
  in
  let ctx =
    {
      env;
      prog;
      rename;
      kloop_var;
      reads_acc = Hashtbl.create 16;
      writes_acc = Hashtbl.create 16;
    }
  in
  let base_scope = match kloop_var with Some v -> [ v ] | None -> [] in
  let guard' = Option.map (rw_expr ctx ~scope:[]) guard in
  let lead' = rw_stmts ctx ~scope:[] lead_decls in
  let content' = rw_stmts ctx ~scope:base_scope content in
  let to_list tbl = Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) tbl [] |> List.sort compare in
  let m_arrays =
    List.map (fun (_, host) -> (host, find_array prog host)) env.param_binding
    |> List.sort_uniq compare
  in
  {
    m_name = kernel.k_name;
    m_index = index;
    m_launch = l;
    m_guard = guard';
    m_kloop = kloop;
    m_body = lead' @ content';
    m_domain = l.l_domain;
    m_nest_depth = nest_depth;
    m_reads = to_list ctx.reads_acc;
    m_writes = to_list ctx.writes_acc;
    m_double_args = double_args;
    m_arrays;
  }

let reads_of m host = Option.value ~default:[] (List.assoc_opt host m.m_reads)

let writes_of m host = Option.value ~default:[] (List.assoc_opt host m.m_writes)

let touched_arrays m =
  let names = List.map fst m.m_reads @ List.map fst m.m_writes in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n -> if Hashtbl.mem seen n then false else (Hashtbl.replace seen n (); true))
    names
