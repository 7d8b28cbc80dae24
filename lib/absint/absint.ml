(* Forward abstract interpretation over the CUDA subset.

   Domain: reduced product of saturating integer intervals and symbolic
   affine forms sum(c_i * s_i) + c over a small symbol universe — the
   six launch builtins (threadIdx/blockIdx per dimension) plus one fresh
   symbol per loop induction variable.  blockDim, gridDim and integer
   kernel arguments are concrete at analysis time, so the affine forms
   of the usual stencil index expressions (gi = blockIdx.x * blockDim.x
   + threadIdx.x, idx = (k*ny + j)*nx + i) stay exact end-to-end: the
   interval of an affine form is the termwise sum over symbol ranges,
   and conditional narrowing on an affine variable knows precisely what
   fraction of threads survives (mixed-radix completeness check below).

   The same walk doubles as a guard simplifier: in [simplify] mode an
   [If] whose condition is decided is spliced out.  Everything is a
   sound over-approximation: joins at control merges, havoc for scalars
   mutated in loop bodies, a single abstract pass per loop body whose
   entry state subsumes every concrete iteration.

   Beside the reduced product every value carries a race form: the same
   affine domain over a wider symbol universe (loop trip counters and
   opaque div/mod results), kept apart so that bounds, guard decisions
   and traffic estimates stay exactly those of the product.  Accesses
   record their race form together with a static barrier-interval id and
   the guard facts on their path; [prove_race_free] discharges race
   freedom from them. *)

open Kft_cuda.Ast
module Loc = Kft_cuda.Loc
module Senv = Map.Make (String)
module Imap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* saturating intervals                                                *)
(* ------------------------------------------------------------------ *)

type itv = { lo : int; hi : int }

let big = 1 lsl 44
let clamp v = if v > big then big else if v < -big then -big else v
let sat_add a b = clamp (a + b)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if abs a > big / abs b then if (a > 0) = (b > 0) then big else -big
  else clamp (a * b)

let itop = { lo = -big; hi = big }
let iconst n = { lo = clamp n; hi = clamp n }
let is_const i = i.lo = i.hi
let itv_width i = sat_add (sat_add i.hi (-i.lo)) 1
let pp_itv i = Printf.sprintf "[%d,%d]" i.lo i.hi
let ijoin a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let imeet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let iadd a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let isub a b = { lo = sat_add a.lo (-b.hi); hi = sat_add a.hi (-b.lo) }
let ineg a = { lo = -a.hi; hi = -a.lo }

let imul a b =
  let c1 = sat_mul a.lo b.lo
  and c2 = sat_mul a.lo b.hi
  and c3 = sat_mul a.hi b.lo
  and c4 = sat_mul a.hi b.hi in
  { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }

(* OCaml division truncates toward zero; for a fixed nonzero divisor it
   is monotone in the dividend, so corners suffice.  A divisor interval
   that contains zero (or is unbounded) yields top. *)
let idiv a b =
  if is_const b && b.lo <> 0 then begin
    let d = b.lo in
    let x = a.lo / d and y = a.hi / d in
    { lo = min x y; hi = max x y }
  end
  else if b.lo >= 1 || b.hi <= -1 then begin
    let c1 = a.lo / b.lo and c2 = a.lo / b.hi and c3 = a.hi / b.lo and c4 = a.hi / b.hi in
    { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }
  end
  else itop

(* a mod d in the subset follows OCaml semantics: result has the sign
   of a and magnitude < |d|.  Sound for any positive divisor range. *)
let imod a b =
  if b.lo >= 1 then begin
    let m = b.hi - 1 in
    let lo = max (min a.lo 0) (-m) and hi = min (max a.hi 0) m in
    { lo; hi }
  end
  else itop

let imin a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
let imax a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

let iabs a =
  if a.lo >= 0 then a
  else if a.hi <= 0 then ineg a
  else { lo = 0; hi = max (-a.lo) a.hi }

(* ------------------------------------------------------------------ *)
(* affine forms                                                        *)
(* ------------------------------------------------------------------ *)

type aff = { coef : int Imap.t; const : int }

let aconst n = { coef = Imap.empty; const = n }
let asym s = { coef = Imap.singleton s 1; const = 0 }

let aadd a b =
  {
    coef =
      Imap.union (fun _ x y -> if x + y = 0 then None else Some (x + y)) a.coef b.coef;
    const = a.const + b.const;
  }

let ascale k a =
  if k = 0 then aconst 0
  else { coef = Imap.map (fun c -> c * k) a.coef; const = a.const * k }

let aneg a = ascale (-1) a
let asub a b = aadd a (aneg b)

let adiv_exact a d =
  if d > 0 && a.const mod d = 0 && Imap.for_all (fun _ c -> c mod d = 0) a.coef then
    Some { coef = Imap.map (fun c -> c / d) a.coef; const = a.const / d }
  else None

let equal_aff a b = a.const = b.const && Imap.equal ( = ) a.coef b.coef

(* ------------------------------------------------------------------ *)
(* analysis context                                                    *)
(* ------------------------------------------------------------------ *)

type status = Proved | Oob | Unknown
type space = Global | Shared
type form = aff

(* a path condition: [f_form] lies in [f_itv] *)
type fact = { f_form : aff; f_itv : itv }

type access = {
  acc_array : string;
  acc_space : space;
  acc_write : bool;
  acc_loc : Loc.pos;
  acc_status : status;
  acc_range : itv;
  acc_extent : int;
  acc_tx_stride : int option;
  acc_bytes : float;
  acc_exact : bool;
  acc_form : form option;
  acc_interval : int;
  acc_facts : fact list;
  acc_outside : fact list list;
}

type guard = {
  gu_loc : Loc.pos;
  gu_cond : string;
  gu_decided : bool option;
  gu_thread_dep : bool;
  gu_frac : float;
}

type footprint = { fp_reads : itv option; fp_writes : itv option }

type sym_info = { rng : itv; s_uni : bool }
type syms = (int, sym_info) Hashtbl.t

type result = {
  res_kernel : string;
  res_accesses : access list;
  res_guards : guard list;
  res_proved : int;
  res_unknown : int;
  res_oob : int;
  res_all_proved : bool;
  res_est_bytes : float;
  res_est_exact : bool;
  res_footprints : (string * footprint) list;
  res_syms : syms;
}

type divmod = Quot | Rem

type ctx = {
  syms : syms;
  mutable next_sym : int;
  mutable next_rsym : int;  (* race-form-only symbols: trip counters, div/mod *)
  opaque : (divmod * int * (int * int) list * int, int) Hashtbl.t;
      (* (kind, divisor, operand form) -> its symbol *)
  opaque_of : (int, divmod * int * aff) Hashtbl.t;
  mutable facts : fact list;  (* path conditions of the current point *)
  mutable outside : fact list list;  (* negated guard boxes on the path *)
  mutable interval : int;  (* static barrier interval of the current point *)
  mutable next_interval : int;
  iv_parent : (int, int) Hashtbl.t;  (* union-find over interval ids *)
  global_cells : (string * int) list;
  shared : (string, int list) Hashtbl.t;
  mutable record : bool;  (* off while deciding conditions *)
  mutable accesses : access list;  (* reversed *)
  mutable guards : guard list;  (* reversed *)
  mutable eliminated : int;
  mutable returns : bool;
  mutable cloc : Loc.pos;
  simplify : bool;
  threads : float;
}

let sym_tx = 0
let sym_ty = 1
let sym_tz = 2

let fresh_sym ctx info =
  let s = ctx.next_sym in
  ctx.next_sym <- s + 1;
  Hashtbl.replace ctx.syms s info;
  s

(* race-form symbols are numbered apart from the product's loop symbols,
   so allocating them never renumbers (and so never reorders) the forms
   the product computes *)
let fresh_rsym ctx rng =
  let s = ctx.next_rsym in
  ctx.next_rsym <- s + 1;
  Hashtbl.replace ctx.syms s { rng; s_uni = false };
  s

let sym_range syms s =
  match Hashtbl.find_opt syms s with Some i -> i.rng | None -> itop

let sym_info ctx s =
  match Hashtbl.find_opt ctx.syms s with
  | Some i -> i
  | None -> { rng = itop; s_uni = false }

(* ------------------------------------------------------------------ *)
(* abstract values: reduced product                                    *)
(* ------------------------------------------------------------------ *)

type aval = { aff : aff option; itv : itv; uni : bool; rf : aff option }
(* [uni]: the value is uniformly distributed over the integers of [itv]
   across the threads/iterations it ranges over — licenses exact
   narrowing fractions for traffic prediction (never affects
   soundness).  [rf]: the race form, read only by the race prover. *)

let top_val = { aff = None; itv = itop; uni = false; rf = None }

let const_val n =
  let a = Some (aconst (clamp n)) in
  { aff = a; itv = iconst n; uni = true; rf = a }

let range_in syms a =
  Imap.fold (fun s c acc -> iadd acc (imul (iconst c) (sym_range syms s))) a.coef (iconst a.const)

let range_of_aff ctx a = range_in ctx.syms a

(* fold the symbols whose range is a single value into the constant *)
let pin syms a =
  Imap.fold
    (fun s c acc ->
      let r = sym_range syms s in
      if r.lo = r.hi then { coef = Imap.remove s acc.coef; const = acc.const + (c * r.lo) }
      else acc)
    a.coef a

(* [p = d * q + r] with every term of [r] below [d] and [0 <= r < d]:
   for a nonnegative [p], [q] and [r] are its quotient and remainder *)
let mixed_radix ctx p d =
  let low = Imap.filter (fun _ c -> c mod d <> 0) p.coef in
  let r = { coef = low; const = ((p.const mod d) + d) mod d } in
  let rr = range_of_aff ctx r in
  if (range_of_aff ctx p).lo < 0 || rr.lo < 0 || rr.hi >= d then None
  else
    Option.map (fun q -> (q, r))
      (adiv_exact { coef = Imap.filter (fun _ c -> c mod d = 0) p.coef; const = p.const - r.const } d)

(* The race form of [p / d] or [p mod d] (constant d > 0): exact when
   [p] splits in radix [d] (e.g. tid / bx = ty), otherwise a symbol that
   stands for that function of [p]'s symbols, so one operand always maps
   to one symbol, and [d * (p / d) + p mod d] can be folded back to [p]
   (see [fold_divmod]). *)
let divmod_form ctx kind p d =
  let p = pin ctx.syms p in
  match (kind, adiv_exact p d, mixed_radix ctx p d) with
  | Quot, Some q, _ | Quot, None, Some (q, _) -> q
  | Rem, Some _, _ -> aconst 0
  | Rem, None, Some (_, r) -> r
  | _ ->
      let key = (kind, d, Imap.bindings p.coef, p.const) in
      let s =
        match Hashtbl.find_opt ctx.opaque key with
        | Some s -> s
        | None ->
            let r = range_of_aff ctx p in
            let rng = match kind with Quot -> idiv r (iconst d) | Rem -> imod r (iconst d) in
            let s = fresh_rsym ctx rng in
            Hashtbl.replace ctx.opaque key s;
            Hashtbl.replace ctx.opaque_of s (kind, d, p);
            s
      in
      asym s

(* d * (p / d) + (p mod d) = p under truncating division, whatever the
   sign of p: fold every such pair (same multiplier k) back to k * p.
   Only applied when p is provably nonnegative, the case in which both
   terms are subscripts of one in-bounds tile cell. *)
let fold_divmod ctx a =
  Imap.fold
    (fun s c acc ->
      match Hashtbl.find_opt ctx.opaque_of s with
      | Some (Rem, d, p) when (range_of_aff ctx p).lo >= 0 -> (
          match
            Hashtbl.find_opt ctx.opaque (Quot, d, Imap.bindings p.coef, p.const)
          with
          | Some q when Imap.find_opt q acc.coef = Some (c * d) && Imap.find_opt s acc.coef = Some c ->
              aadd (asub acc (aadd (ascale (c * d) (asym q)) (ascale c (asym s)))) (ascale c p)
          | _ -> acc)
      | _ -> acc)
    a.coef a

(* Mixed-radix completeness: sorted by |coef| ascending, the smallest
   coefficient is 1 and each next equals the product of the widths so
   far (gi = blockIdx.x*blockDim.x + threadIdx.x, tid = ty*bx + tx...).
   Then the affine form takes every integer of its range exactly once
   per sweep: uniform. *)
let covers ctx a =
  let terms = Imap.bindings a.coef in
  match terms with
  | [] -> true
  | _ ->
      List.for_all (fun (s, _) -> (sym_info ctx s).s_uni) terms
      && begin
           let sorted =
             List.sort (fun (_, c1) (_, c2) -> compare (abs c1) (abs c2)) terms
           in
           let rec go acc = function
             | [] -> true
             | (s, c) :: rest ->
                 abs c = acc && go (acc * itv_width (sym_info ctx s).rng) rest
           in
           go 1 sorted
         end

let mk ctx ?rf aff itv =
  match aff with
  | None -> { aff = None; itv; uni = is_const itv; rf }
  | Some a ->
      let r = range_of_aff ctx a in
      let itv = match imeet itv r with Some m -> m | None -> itv in
      { aff; itv; uni = covers ctx a; rf }

let sym_val ctx s = mk ctx ~rf:(asym s) (Some (asym s)) itop

let same_form a b =
  match (a, b) with Some x, Some y when equal_aff x y -> a | _ -> None

let join_val ctx a b =
  let rf = same_form a.rf b.rf in
  match (a.aff, b.aff) with
  | Some x, Some y when equal_aff x y -> mk ctx ?rf (Some x) (ijoin a.itv b.itv)
  | _ -> mk ctx ?rf None (ijoin a.itv b.itv)

let join_env ctx a b =
  Senv.merge
    (fun _ x y ->
      match (x, y) with Some x, Some y -> Some (join_val ctx x y) | _ -> None)
    a b

(* ------------------------------------------------------------------ *)
(* expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

type weight = { trips : float; frac : float; w_exact : bool }

let bool_itv lo hi = { aff = None; itv = { lo; hi }; uni = false; rf = None }

let builtin_val ctx ~block:(bx, by, bz) ~grid:(gx, gy, gz) = function
  | Thread_idx X -> sym_val ctx sym_tx
  | Thread_idx Y -> sym_val ctx sym_ty
  | Thread_idx Z -> sym_val ctx sym_tz
  | Block_idx X -> sym_val ctx 3
  | Block_idx Y -> sym_val ctx 4
  | Block_idx Z -> sym_val ctx 5
  | Block_dim X -> const_val bx
  | Block_dim Y -> const_val by
  | Block_dim Z -> const_val bz
  | Grid_dim X -> const_val gx
  | Grid_dim Y -> const_val gy
  | Grid_dim Z -> const_val gz

(* sign of a difference decides a comparison *)
let cmp_val op d =
  match op with
  | Lt -> if d.hi < 0 then Some true else if d.lo >= 0 then Some false else None
  | Le -> if d.hi <= 0 then Some true else if d.lo > 0 then Some false else None
  | Gt -> if d.lo > 0 then Some true else if d.hi <= 0 then Some false else None
  | Ge -> if d.lo >= 0 then Some true else if d.hi < 0 then Some false else None
  | Eq ->
      if d.lo = 0 && d.hi = 0 then Some true
      else if d.hi < 0 || d.lo > 0 then Some false
      else None
  | Ne ->
      if d.hi < 0 || d.lo > 0 then Some true
      else if d.lo = 0 && d.hi = 0 then Some false
      else None
  | _ -> None

type env = aval Senv.t

type state = {
  c : ctx;
  block : int * int * int;
  grid : int * int * int;
}

let rec eval st (env : env) ~w e : aval =
  let ctx = st.c in
  match e with
  | Int_lit n -> const_val n
  | Double_lit _ -> top_val
  | Var v -> ( match Senv.find_opt v env with Some a -> a | None -> top_val)
  | Builtin b -> builtin_val ctx ~block:st.block ~grid:st.grid b
  | Binop (op, a, b) -> eval_binop st env ~w op a b
  | Unop (Neg, a) ->
      let v = eval st env ~w a in
      mk ctx ?rf:(Option.map aneg v.rf) (Option.map aneg v.aff) (ineg v.itv)
  | Unop (Not, a) ->
      let v = eval st env ~w a in
      (* !x: 1 when x = 0 *)
      if v.itv.lo > 0 || v.itv.hi < 0 then const_val 0
      else if v.itv.lo = 0 && v.itv.hi = 0 then const_val 1
      else bool_itv 0 1
  | Index (a, idxs) ->
      let vals = List.map (eval st env ~w) idxs in
      if ctx.record then record_access st ~w ~write:false a vals;
      top_val
  | Call ("min", [ a; b ]) ->
      let x = eval st env ~w a and y = eval st env ~w b in
      mk ctx None (imin x.itv y.itv)
  | Call ("max", [ a; b ]) ->
      let x = eval st env ~w a and y = eval st env ~w b in
      mk ctx None (imax x.itv y.itv)
  | Call ("abs", [ a ]) ->
      let x = eval st env ~w a in
      mk ctx None (iabs x.itv)
  | Call (_, args) ->
      List.iter (fun a -> ignore (eval st env ~w a)) args;
      top_val
  | Ternary (c, a, b) -> (
      match decide st env c with
      | Some true -> eval st env ~w a
      | Some false -> eval st env ~w b
      | None -> join_val st.c (eval st env ~w a) (eval st env ~w b))

and eval_binop st env ~w op a b =
  let ctx = st.c in
  let x = eval st env ~w a and y = eval st env ~w b in
  let lift2 f p q = match (p, q) with Some p, Some q -> Some (f p q) | _ -> None in
  let scaled p q =
    if is_const x.itv then Option.map (ascale x.itv.lo) q
    else if is_const y.itv then Option.map (ascale y.itv.lo) p
    else None
  in
  let divisor = if is_const y.itv && y.itv.lo > 0 then Some y.itv.lo else None in
  let divmod kind =
    match divisor with
    | Some d -> Option.map (fun p -> divmod_form ctx kind p d) x.rf
    | None -> None
  in
  match op with
  | Add -> mk ctx ?rf:(lift2 aadd x.rf y.rf) (lift2 aadd x.aff y.aff) (iadd x.itv y.itv)
  | Sub -> mk ctx ?rf:(lift2 asub x.rf y.rf) (lift2 asub x.aff y.aff) (isub x.itv y.itv)
  | Mul -> mk ctx ?rf:(scaled x.rf y.rf) (scaled x.aff y.aff) (imul x.itv y.itv)
  | Div ->
      let aff =
        match divisor with Some d -> Option.bind x.aff (fun p -> adiv_exact p d) | None -> None
      in
      mk ctx ?rf:(divmod Quot) aff (idiv x.itv y.itv)
  | Mod -> mk ctx ?rf:(divmod Rem) None (imod x.itv y.itv)
  | (Lt | Le | Gt | Ge | Eq | Ne) as op -> (
      match cmp_val op (isub x.itv y.itv) with
      | Some true -> const_val 1
      | Some false -> const_val 0
      | None -> bool_itv 0 1)
  | And ->
      let t v = v.itv.lo > 0 || v.itv.hi < 0 (* definitely nonzero *)
      and f v = v.itv.lo = 0 && v.itv.hi = 0 in
      if f x || f y then const_val 0 else if t x && t y then const_val 1 else bool_itv 0 1
  | Or ->
      let t v = v.itv.lo > 0 || v.itv.hi < 0 and f v = v.itv.lo = 0 && v.itv.hi = 0 in
      if t x || t y then const_val 1 else if f x && f y then const_val 0 else bool_itv 0 1

(* Three-valued truth of a condition; never records accesses. *)
and decide st env c : bool option =
  let ctx = st.c in
  let saved = ctx.record in
  ctx.record <- false;
  let r = decide_on st env c in
  ctx.record <- saved;
  r

and decide_on st env c =
  let w1 = { trips = 1.0; frac = 1.0; w_exact = false } in
  match c with
  | Int_lit n -> Some (n <> 0)
  | Binop (And, a, b) -> (
      match (decide_on st env a, decide_on st env b) with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None)
  | Binop (Or, a, b) -> (
      match (decide_on st env a, decide_on st env b) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)
  | Unop (Not, a) -> Option.map not (decide_on st env a)
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let x = eval st env ~w:w1 a and y = eval st env ~w:w1 b in
      let d =
        match (x.aff, y.aff) with
        | Some p, Some q ->
            (* difference through the affine form: correlated terms
               cancel, e.g. gi < gridDim.x*blockDim.x is decided even
               though both sides mention blockIdx.x *)
            (mk st.c (Some (asub p q)) (isub x.itv y.itv)).itv
        | _ -> isub x.itv y.itv
      in
      cmp_val op d
  | e ->
      let v = eval st env ~w:w1 e in
      if v.itv.lo > 0 || v.itv.hi < 0 then Some true
      else if v.itv.lo = 0 && v.itv.hi = 0 then Some false
      else None

(* Condition refinement for the then-branch: narrow interval bounds of
   plain variables compared against an evaluable expression.  Returns
   [None] when the condition is infeasible, else the refined
   environment, the estimated fraction of threads satisfying it, and
   whether that fraction is exact. *)
and refine st env c : (env * float * bool) option =
  match c with
  | Binop (And, a, b) ->
      Option.bind (refine st env a) (fun (env, f1, e1) ->
          Option.map (fun (env, f2, e2) -> (env, f1 *. f2, e1 && e2)) (refine st env b))
  | atom -> (
      match decide st env atom with
      | Some true -> Some (env, 1.0, true)
      | Some false -> None
      | None -> narrow_atom st env atom)

and narrow_atom st env atom =
  let ctx = st.c in
  let saved = ctx.record in
  ctx.record <- false;
  let w1 = { trips = 1.0; frac = 1.0; w_exact = false } in
  let r =
    let narrow v op rhs =
      match Senv.find_opt v env with
      | None -> Some (env, 1.0, false)
      | Some cur ->
          let rv = eval st env ~w:w1 rhs in
          let lo, hi = (cur.itv.lo, cur.itv.hi) in
          let lo', hi' =
            match op with
            | Lt -> (lo, min hi (sat_add rv.itv.hi (-1)))
            | Le -> (lo, min hi rv.itv.hi)
            | Gt -> (max lo (sat_add rv.itv.lo 1), hi)
            | Ge -> (max lo rv.itv.lo, hi)
            | Eq -> (max lo rv.itv.lo, min hi rv.itv.hi)
            | _ -> (lo, hi)
          in
          if lo' > hi' then None
          else begin
            let frac =
              float_of_int (hi' - lo' + 1) /. float_of_int (itv_width cur.itv)
            in
            let exact =
              cur.uni && is_const rv.itv
              && (match op with Ne -> false | _ -> true)
            in
            let refined = { cur with itv = { lo = lo'; hi = hi' } } in
            Some (Senv.add v refined env, frac, exact)
          end
    in
    let flip = function
      | Lt -> Gt
      | Le -> Ge
      | Gt -> Lt
      | Ge -> Le
      | op -> op
    in
    match atom with
    | Binop (((Lt | Le | Gt | Ge | Eq) as op), Var v, rhs) -> narrow v op rhs
    | Binop (((Lt | Le | Gt | Ge | Eq) as op), lhs, Var v) -> narrow v (flip op) lhs
    | _ -> Some (env, 1.0, false)
  in
  ctx.record <- saved;
  r

(* ------------------------------------------------------------------ *)
(* access recording                                                    *)
(* ------------------------------------------------------------------ *)

and record_access st ~w ~write a (vals : aval list) =
  let ctx = st.c in
  match Hashtbl.find_opt ctx.shared a with
  | Some dims ->
      (* shared array: per-dimension bounds against the declaration *)
      if List.length dims <> List.length vals then
        push_access ctx ~a ~space:Shared ~write ~status:Unknown ~range:itop
          ~extent:(List.fold_left ( * ) 1 dims)
          ~stride:None ~bytes:0.0 ~exact:false ~form:None
      else begin
        let statuses =
          List.map2
            (fun d (v : aval) ->
              if v.itv.lo >= 0 && v.itv.hi < d then Proved
              else if v.itv.hi < 0 || v.itv.lo >= d then Oob
              else Unknown)
            dims vals
        in
        let status =
          if List.exists (( = ) Oob) statuses then Oob
          else if List.exists (( = ) Unknown) statuses then Unknown
          else Proved
        in
        (* linearize for the bank-conflict stride and the range *)
        let lin =
          List.fold_left2
            (fun acc d (v : aval) ->
              let scaled_itv = iadd (imul acc.itv (iconst d)) v.itv in
              let aff =
                match (acc.aff, v.aff) with
                | Some p, Some q -> Some (aadd (ascale d p) q)
                | _ -> None
              in
              mk ctx aff scaled_itv)
            (const_val 0) dims vals
        in
        let stride =
          Option.map
            (fun p -> match Imap.find_opt sym_tx p.coef with Some c -> c | None -> 0)
            lin.aff
        in
        (* the race form linearizes the same way, then folds the
           cooperative-load subscripts [a / W][a % W] back to [a] *)
        let form =
          List.fold_left2
            (fun acc d (v : aval) ->
              match (acc, v.rf) with Some p, Some q -> Some (aadd (ascale d p) q) | _ -> None)
            (Some (aconst 0)) dims vals
          |> Option.map (fold_divmod ctx)
        in
        push_access ctx ~a ~space:Shared ~write ~status ~range:lin.itv
          ~extent:(List.fold_left ( * ) 1 dims)
          ~stride ~bytes:0.0 ~exact:false ~form
      end
  | None -> (
      match (List.assoc_opt a ctx.global_cells, vals) with
      | Some cells, [ v ] ->
          let status =
            if v.itv.lo >= 0 && v.itv.hi < cells then Proved
            else if v.itv.hi < 0 || v.itv.lo >= cells then Oob
            else Unknown
          in
          let stride =
            Option.map
              (fun p -> match Imap.find_opt sym_tx p.coef with Some c -> c | None -> 0)
              v.aff
          in
          let bytes = 8.0 *. ctx.threads *. w.frac *. w.trips in
          push_access ctx ~a ~space:Global ~write ~status ~range:v.itv ~extent:cells
            ~stride ~bytes ~exact:w.w_exact ~form:v.rf
      | Some cells, _ ->
          (* global arrays are linearized in the subset: anything else
             is outside the domain *)
          push_access ctx ~a ~space:Global ~write ~status:Unknown ~range:itop
            ~extent:cells ~stride:None ~bytes:0.0 ~exact:false ~form:None
      | None, _ ->
          (* unknown array (not a parameter of this launch): imprecise *)
          push_access ctx ~a ~space:Global ~write ~status:Unknown ~range:itop ~extent:0
            ~stride:None ~bytes:0.0 ~exact:false ~form:None)

and push_access ctx ~a ~space ~write ~status ~range ~extent ~stride ~bytes ~exact ~form =
  ctx.accesses <-
    {
      acc_array = a;
      acc_space = space;
      acc_write = write;
      acc_loc = ctx.cloc;
      acc_status = status;
      acc_range = range;
      acc_extent = extent;
      acc_tx_stride = stride;
      acc_bytes = bytes;
      acc_exact = exact;
      acc_form = form;
      acc_interval = ctx.interval;
      acc_facts = ctx.facts;
      acc_outside = ctx.outside;
    }
    :: ctx.accesses

(* ------------------------------------------------------------------ *)
(* statements                                                          *)
(* ------------------------------------------------------------------ *)

let assigned_scalars stmts =
  fold_stmts
    (fun acc s ->
      match s with
      | Assign (Lvar v, _) | Decl (_, v, _) -> v :: acc
      | For l -> l.index :: acc
      | _ -> acc)
    [] stmts

(* does the condition depend on the thread id (directly or through the
   environment)? drives the divergence lint, not soundness *)
let thread_dep env c =
  fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Builtin (Thread_idx _) -> true
      | Var v -> (
          match Senv.find_opt v env with
          | Some { aff = Some p; _ } ->
              Imap.exists (fun s _ -> s = sym_tx || s = sym_ty || s = sym_tz) p.coef
          | _ -> false)
      | _ -> false)
    false c

(* static barrier intervals: a union-find over interval ids, merged
   wherever two barrier-free paths meet (branch joins, loop back edges) *)
let rec iv_find ctx i =
  match Hashtbl.find_opt ctx.iv_parent i with
  | Some p when p <> i ->
      let r = iv_find ctx p in
      Hashtbl.replace ctx.iv_parent i r;
      r
  | _ -> i

let iv_union ctx a b =
  let ra = iv_find ctx a and rb = iv_find ctx b in
  if ra <> rb then Hashtbl.replace ctx.iv_parent (max ra rb) (min ra rb)

let rec conjuncts = function Binop (And, a, b) -> conjuncts a @ conjuncts b | c -> [ c ]

(* what a comparison atom states about race forms, when both sides have one *)
let fact_of_atom st env atom =
  match atom with
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), a, b) -> (
      let w1 = { trips = 1.0; frac = 1.0; w_exact = false } in
      let x = eval st env ~w:w1 a and y = eval st env ~w:w1 b in
      match (x.rf, y.rf) with
      | Some p, Some q ->
          let f_itv =
            match op with
            | Lt -> { lo = -big; hi = -1 }
            | Le -> { lo = -big; hi = 0 }
            | Gt -> { lo = 1; hi = big }
            | Ge -> { lo = 0; hi = big }
            | _ -> iconst 0
          in
          Some { f_form = asub p q; f_itv }
      | _ -> None)
  | _ -> None

(* path conditions of both arms of [if (c)]: the then arm learns every
   atom; the else arm learns the negated atom when [c] is a single
   half-bounded one, else that it lies outside the box of all atoms
   (only when every atom is understood) *)
let branch_facts st env c =
  let ctx = st.c in
  if not ctx.record then ([], [])
  else begin
    ctx.record <- false;
    let atoms = conjuncts c in
    let facts = List.filter_map (fact_of_atom st env) atoms in
    ctx.record <- true;
    let negated =
      if List.length facts <> List.length atoms then []
      else
        match facts with
        | [ { f_form; f_itv } ] when f_itv.lo <= -big ->
            [ `Fact { f_form; f_itv = { lo = f_itv.hi + 1; hi = big } } ]
        | [ { f_form; f_itv } ] when f_itv.hi >= big ->
            [ `Fact { f_form; f_itv = { lo = -big; hi = f_itv.lo - 1 } } ]
        | _ -> [ `Outside facts ]
    in
    (facts, negated)
  end

let with_path ctx facts outside f =
  let sf = ctx.facts and so = ctx.outside in
  ctx.facts <- facts @ sf;
  ctx.outside <- outside @ so;
  let r = f () in
  ctx.facts <- sf;
  ctx.outside <- so;
  r

let rec exec st env ~w stmts : env * stmt list =
  let ctx = st.c in
  let env, rev =
    List.fold_left
      (fun (env, acc) s ->
        let saved = ctx.cloc in
        let l = Loc.find s in
        if not (Loc.is_none l) then ctx.cloc <- l;
        let env, out = exec_stmt st env ~w s in
        ctx.cloc <- saved;
        (env, List.rev_append out acc))
      (env, []) stmts
  in
  (env, List.rev rev)

and exec_stmt st env ~w s : env * stmt list =
  let ctx = st.c in
  match s with
  | Decl (_, v, init) ->
      let value = match init with Some e -> eval st env ~w e | None -> top_val in
      (Senv.add v value env, [ s ])
  | Shared_decl (_, name, dims) ->
      Hashtbl.replace ctx.shared name dims;
      (env, [ s ])
  | Assign (Lvar v, e) -> (Senv.add v (eval st env ~w e) env, [ s ])
  | Assign (Lindex (a, idxs), e) ->
      ignore (eval st env ~w e);
      let vals = List.map (eval st env ~w) idxs in
      if ctx.record then record_access st ~w ~write:true a vals;
      (env, [ s ])
  | Syncthreads ->
      ctx.interval <- ctx.next_interval;
      ctx.next_interval <- ctx.next_interval + 1;
      (env, [ s ])
  | Return ->
      ctx.returns <- true;
      (env, [ s ])
  | If (c, t, e) -> exec_if st env ~w s c t e
  | For l -> exec_for st env ~w s l

and exec_if st env ~w s c t e =
  let ctx = st.c in
  let d = decide st env c in
  (* accesses inside the condition itself (rare) are recorded once *)
  if ctx.record then ignore (eval st env ~w c);
  let tdep = thread_dep env c in
  let push_guard frac =
    ctx.guards <-
      {
        gu_loc = ctx.cloc;
        gu_cond = Kft_cuda.Pp.expr c;
        gu_decided = d;
        gu_thread_dep = tdep;
        gu_frac = frac;
      }
      :: ctx.guards
  in
  let facts, negated = branch_facts st env c in
  let in_then f = with_path ctx facts [] f in
  let in_else f =
    match negated with
    | [ `Fact n ] -> with_path ctx [ n ] [] f
    | [ `Outside box ] -> with_path ctx [] [ box ] f
    | _ -> f ()
  in
  match d with
  | Some true ->
      push_guard 1.0;
      let env', t' = in_then (fun () -> exec st env ~w t) in
      if st.c.simplify then begin
        ctx.eliminated <- ctx.eliminated + 1;
        (env', t')
      end
      else (env', [ s ])
  | Some false ->
      push_guard 0.0;
      let env', e' = in_else (fun () -> exec st env ~w e) in
      if st.c.simplify then begin
        ctx.eliminated <- ctx.eliminated + 1;
        (env', e')
      end
      else (env', [ s ])
  | None ->
      let rt = refine st env c in
      let frac_t, exact_t = match rt with None -> (0.0, true) | Some (_, f, ex) -> (f, ex) in
      push_guard frac_t;
      let i0 = ctx.interval in
      let env_t, t', feasible_t =
        match rt with
        | None -> (env, t, false) (* then-branch unreachable *)
        | Some (env_c, _, _) ->
            let env1, t' =
              in_then (fun () ->
                  exec st env_c
                    ~w:{ w with frac = w.frac *. frac_t; w_exact = w.w_exact && exact_t }
                    t)
            in
            (env1, t', true)
      in
      let i_then = ctx.interval in
      ctx.interval <- i0;
      let frac_e = Float.max 0.0 (1.0 -. frac_t) in
      let env_e, e' =
        if e = [] then (env, [])
        else
          in_else (fun () ->
              exec st env
                ~w:{ w with frac = w.frac *. frac_e; w_exact = w.w_exact && exact_t }
                e)
      in
      iv_union ctx i_then ctx.interval;
      ctx.interval <- iv_find ctx i_then;
      let env' = if feasible_t then join_env st.c env_t env_e else env_e in
      (env', if st.c.simplify then [ If (c, t', e') ] else [ s ])

and exec_for st env ~w s (l : for_loop) =
  let ctx = st.c in
  let lov = eval st env ~w l.lo and hiv = eval st env ~w l.hi in
  if lov.itv.lo >= hiv.itv.hi then (env, [ s ]) (* proved zero-trip *)
  else begin
    let step = max 1 l.step in
    let trips, texact =
      if is_const lov.itv && is_const hiv.itv then
        (float_of_int (max 0 ((hiv.itv.lo - lov.itv.lo + step - 1) / step)), true)
      else
        (float_of_int (max 1 ((hiv.itv.hi - lov.itv.lo + step - 1) / step)), false)
    in
    let iv_rng = { lo = lov.itv.lo; hi = sat_add hiv.itv.hi (-1) } in
    let sym = fresh_sym ctx { rng = iv_rng; s_uni = step = 1 } in
    let saved_iv = Senv.find_opt l.index env in
    (* scalars mutated in the body may carry any value at body entry *)
    let env0 =
      List.fold_left
        (fun e v -> if Senv.mem v e then Senv.add v top_val e else e)
        env (assigned_scalars l.body)
    in
    (* race form of the index: lo + step * m over a fresh trip counter
       m, so a cooperative-load counter c = tid + step * m stays tied to
       the thread id; a body that assigns the index gets a bare symbol *)
    let rf =
      match lov.rf with
      | Some lo when l.step >= 1 && not (List.mem l.index (assigned_scalars l.body)) ->
          let m = fresh_rsym ctx { lo = 0; hi = max 0 ((iv_rng.hi - lov.itv.lo) / step) } in
          aadd lo (ascale step (asym m))
      | _ -> asym sym
    in
    let env0 = Senv.add l.index (mk ctx ~rf (Some (asym sym)) iv_rng) env0 in
    let i0 = ctx.interval in
    let env1, body' =
      exec st env0
        ~w:{ trips = w.trips *. trips; frac = w.frac; w_exact = w.w_exact && texact }
        l.body
    in
    (* a barrier in the body: the tail of one iteration shares its
       interval with the head of the next and with the code after *)
    iv_union ctx i0 ctx.interval;
    ctx.interval <- iv_find ctx i0;
    let out = join_env st.c env env1 in
    let out =
      match saved_iv with
      | Some v -> Senv.add l.index v out
      | None -> Senv.remove l.index out
    in
    (out, if st.c.simplify then [ For { l with body = body' } ] else [ s ])
  end

(* ------------------------------------------------------------------ *)
(* drivers                                                             *)
(* ------------------------------------------------------------------ *)

let run ~simplify ~block ~grid ~int_params ~global_cells (k : kernel) =
  let bx, by, bz = block and gx, gy, gz = grid in
  let ctx =
    {
      syms = Hashtbl.create 16;
      next_sym = 6;
      next_rsym = 1 lsl 30;
      opaque = Hashtbl.create 8;
      opaque_of = Hashtbl.create 8;
      facts = [];
      outside = [];
      interval = 0;
      next_interval = 1;
      iv_parent = Hashtbl.create 8;
      global_cells;
      shared = Hashtbl.create 4;
      record = not simplify;
      accesses = [];
      guards = [];
      eliminated = 0;
      returns = false;
      cloc = Loc.none;
      simplify;
      threads = float_of_int (bx * by * bz) *. float_of_int (gx * gy * gz);
    }
  in
  List.iteri
    (fun i extent -> Hashtbl.replace ctx.syms i { rng = { lo = 0; hi = extent - 1 }; s_uni = true })
    [ bx; by; bz; gx; gy; gz ];
  (* shared declarations are in scope for the whole kernel *)
  fold_stmts
    (fun () s ->
      match s with Shared_decl (_, n, d) -> Hashtbl.replace ctx.shared n d | _ -> ())
    () k.k_body;
  let st = { c = ctx; block; grid } in
  let env0 =
    List.fold_left (fun e (n, v) -> Senv.add n (const_val v) e) Senv.empty int_params
  in
  let _, body' = exec st env0 ~w:{ trips = 1.0; frac = 1.0; w_exact = true } k.k_body in
  (ctx, body')

let result_of (ctx : ctx) k_name =
  let accesses =
    List.rev_map (fun a -> { a with acc_interval = iv_find ctx a.acc_interval }) ctx.accesses
  in
  let count st = List.length (List.filter (fun a -> a.acc_status = st) accesses) in
  let globals = List.filter (fun a -> a.acc_space = Global) accesses in
  let est_bytes = List.fold_left (fun s a -> s +. a.acc_bytes) 0.0 globals in
  let est_exact =
    (not ctx.returns) && List.for_all (fun a -> a.acc_exact) globals
  in
  let fp_tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let cur =
        match Hashtbl.find_opt fp_tbl a.acc_array with
        | Some f -> f
        | None -> { fp_reads = None; fp_writes = None }
      in
      let upd side = match side with None -> Some a.acc_range | Some i -> Some (ijoin i a.acc_range) in
      let cur =
        if a.acc_write then { cur with fp_writes = upd cur.fp_writes }
        else { cur with fp_reads = upd cur.fp_reads }
      in
      Hashtbl.replace fp_tbl a.acc_array cur)
    globals;
  let footprints =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) fp_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let oob = count Oob and unknown = count Unknown in
  {
    res_kernel = k_name;
    res_accesses = accesses;
    res_guards = List.rev ctx.guards;
    res_proved = count Proved;
    res_unknown = unknown;
    res_oob = oob;
    res_all_proved = oob = 0 && unknown = 0;
    res_est_bytes = est_bytes;
    res_est_exact = est_exact;
    res_footprints = footprints;
    res_syms = ctx.syms;
  }

let analyze_kernel ~block ~grid ~int_params ~global_cells k =
  let ctx, _ = run ~simplify:false ~block ~grid ~int_params ~global_cells k in
  result_of ctx k.k_name

let analyze_launch (p : program) (l : launch) =
  match find_kernel p l.l_kernel with
  | exception Not_found -> None
  | k -> (
      match bind_args k l.l_args with
      | exception Invalid_argument _ -> None
      | bound ->
          let int_params =
            List.filter_map
              (fun (n, a) -> match a with Arg_int v -> Some (n, v) | _ -> None)
              bound
          in
          let global_cells =
            List.filter_map
              (fun (n, a) ->
                match a with
                | Arg_array host -> (
                    match find_array p host with
                    | exception Not_found -> None
                    | arr -> Some (n, array_cells arr))
                | _ -> None)
              bound
          in
          Some
            (analyze_kernel ~block:l.l_block ~grid:(grid_of_launch l) ~int_params
               ~global_cells k))

let simplify_kernel ~block ~grid ~int_params k =
  let ctx, body' = run ~simplify:true ~block ~grid ~int_params ~global_cells:[] k in
  ({ k with k_body = body' }, ctx.eliminated)

(* ------------------------------------------------------------------ *)
(* race freedom                                                        *)
(* ------------------------------------------------------------------ *)

let regions_disjoint (a : itv) (b : itv) = a.hi < b.lo || b.hi < a.lo

type unsettled = { un_loc : Loc.pos; un_why : string; un_tried : string list }
type race_verdict = Race_free of string list | Race_unsettled of unsettled

let is_block s = s >= 3 && s <= 5
let width syms s = itv_width (sym_range syms s)
let restrict a keep = { coef = Imap.filter (fun s _ -> keep s) a.coef; const = 0 }
let span syms a = Imap.fold (fun s c acc -> sat_add acc (sat_mul (abs c) (width syms s - 1))) a.coef 0
let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* [a] takes distinct values at distinct points of its symbols' box and
   mentions every non-degenerate symbol of [must]: sorted by magnitude,
   each coefficient exceeds the span of the smaller terms *)
let injective syms ~must a =
  List.for_all (fun s -> width syms s <= 1 || Imap.mem s a.coef) must
  &&
  let terms =
    Imap.bindings a.coef
    |> List.filter (fun (s, _) -> width syms s > 1)
    |> List.sort (fun (_, c1) (_, c2) -> compare (abs c1) (abs c2))
  in
  let rec go sp = function
    | [] -> true
    | (s, c) :: rest -> abs c > sp && go (sat_add sp (sat_mul (abs c) (width syms s - 1))) rest
  in
  go 0 terms

(* Can the cells of [fa] and [fb] only coincide for one and the same
   thread?  The thread is named by the thread and block ids (global
   memory) or by the thread ids alone (a block's shared memory, where
   the block ids are common to both sides); every other symbol is
   private to a thread.  Either both forms are one injective form, or
   they share an injective thread part g and differ elsewhere only by
   multiples of some M > span(g). *)
let own_cell syms ~shared fa fb =
  let ident s = if shared then s <= 2 else s <= 5 in
  let common s = shared && is_block s in
  let private_ s = not (ident s || common s) in
  let must = List.filter ident [ 0; 1; 2; 3; 4; 5 ] in
  (equal_aff fa fb && injective syms ~must (restrict fa (fun s -> not (common s))))
  ||
  let g = restrict fa ident in
  equal_aff g (restrict fb ident)
  && equal_aff (restrict fa common) (restrict fb common)
  && injective syms ~must g
  &&
  let gcd_of a acc = Imap.fold (fun _ c acc -> gcd acc c) (restrict a private_).coef acc in
  let m = gcd_of fa (gcd_of fb (fa.const - fb.const)) in
  m = 0 || span syms g < m

let div_nearest a b = if a >= 0 then (a + (b / 2)) / b else -((-a + (b / 2)) / b)

(* one form per coordinate of a linearized index over [dims] (innermost
   first): each term goes to the outermost coordinate whose stride
   divides it, the constant is split nearest-first from the outside *)
let coordinates dims a =
  let n = List.length dims in
  let strides = Array.make n 1 in
  List.iteri (fun i d -> if i + 1 < n then strides.(i + 1) <- strides.(i) * d) dims;
  let coords = Array.make n (aconst 0) in
  Imap.iter
    (fun s c ->
      let k = ref (n - 1) in
      while !k > 0 && c mod strides.(!k) <> 0 do decr k done;
      coords.(!k) <- aadd coords.(!k) (ascale (c / strides.(!k)) (asym s)))
    a.coef;
  let rem = ref a.const in
  for k = n - 1 downto 1 do
    let q = div_nearest !rem strides.(k) in
    coords.(k) <- aadd coords.(k) (aconst q);
    rem := !rem - (q * strides.(k))
  done;
  coords.(0) <- aadd coords.(0) (aconst !rem);
  coords

(* a fact on [coord] shifted by a constant bounds the coordinate itself *)
let fact_on coord f =
  let d = asub f.f_form coord in
  if Imap.is_empty d.coef then
    Some { lo = sat_add f.f_itv.lo (-d.const); hi = sat_add f.f_itv.hi (-d.const) }
  else None

(* the guard box of an access: per coordinate, its symbol range met
   with every path fact on it; [None] for a coordinate means the facts
   contradict each other, so the access never runs *)
let guard_box syms facts coords =
  Array.map
    (fun c ->
      List.fold_left
        (fun acc f ->
          match (acc, fact_on c f) with Some i, Some j -> imeet i j | acc, _ -> acc)
        (Some (range_in syms c)) facts)
    coords

(* the coordinate box an access is known to lie outside of, if every
   atom of the negated guard bounds one of its coordinates *)
let outside_box coords box =
  List.fold_left
    (fun acc f ->
      Option.bind acc (fun cons ->
          let rec find k =
            if k = Array.length coords then None
            else match fact_on coords.(k) f with Some i -> Some ((k, i) :: cons) | None -> find (k + 1)
          in
          find 0))
    (Some []) box

(* every inner coordinate of a guard box lies inside its dimension: the
   split is then the array's own mixed-radix decomposition, so equal
   cells mean equal coordinates *)
let inner_valid dims bx =
  let ok = ref true in
  Array.iteri
    (fun k i ->
      if k < Array.length dims - 1 then
        match i with Some i -> ok := !ok && i.lo >= 0 && i.hi < dims.(k) | None -> ())
    bx;
  !ok

(* Disjointness of two global accesses by array coordinates: the
   accesses are apart when their guard boxes miss each other on some
   coordinate, or one box lies inside a box the other access is guarded
   to stay outside of (a produced-tile preload reading exactly where the
   writer's guard does not hold). *)
let apart syms dims a b =
  match (a.acc_form, b.acc_form) with
  | Some fa, Some fb when dims <> [] ->
      let ca = coordinates dims fa and cb = coordinates dims fb in
      let dims = Array.of_list dims in
      let ba = guard_box syms a.acc_facts ca and bb = guard_box syms b.acc_facts cb in
      let unreachable bx = Array.exists Option.is_none bx in
      let inside bx outside coords =
        List.exists
          (fun box ->
            match outside_box coords box with
            | Some cons ->
                List.for_all
                  (fun (k, i) ->
                    match bx.(k) with Some j -> i.lo <= j.lo && j.hi <= i.hi | None -> true)
                  cons
            | None -> false)
          outside
      in
      if unreachable ba || unreachable bb then Some "disjoint-ranges"
      else if not (inner_valid dims ba && inner_valid dims bb) then None
      else if
        Array.exists2
          (fun x y -> match (x, y) with Some i, Some j -> imeet i j = None | _ -> true)
          ba bb
      then Some "disjoint-ranges"
      else if inside ba b.acc_outside cb || inside bb a.acc_outside ca then Some "outside-guard"
      else None
  | _ -> None

(* Global accesses of one block in different barrier intervals are
   ordered by the barrier between them, so only threads of two different
   blocks can race on them.  They cannot when each block touches a tile
   of its own: every block symbol is, alone, the block part of some
   coordinate of both accesses, with a coefficient wider than the span
   of the rest of that coordinate over both accesses. *)
let block_tile syms dims a b fa fb =
  a.acc_interval <> b.acc_interval
  && dims <> []
  &&
  let ca = coordinates dims fa and cb = coordinates dims fb in
  let dims = Array.of_list dims in
  inner_valid dims (guard_box syms a.acc_facts ca)
  && inner_valid dims (guard_box syms b.acc_facts cb)
  && List.for_all
       (fun s ->
         width syms s <= 1
         || Array.exists2
              (fun xa xb ->
                let pa = restrict xa is_block in
                equal_aff pa (restrict xb is_block)
                && Imap.bindings pa.coef |> List.map fst = [ s ]
                &&
                let ra = range_in syms (asub xa pa) and rb = range_in syms (asub xb pa) in
                sat_add (max ra.hi rb.hi) (-min ra.lo rb.lo) < abs (Imap.find s pa.coef))
              ca cb)
       [ 3; 4; 5 ]

(* no two points make the forms meet when the gcd of all their
   coefficients does not divide the difference of their constants
   (interleaved writes [2*i] and [2*i + 1]) *)
let gcd_apart fa fb =
  let g = Imap.fold (fun _ c g -> gcd g c) fb.coef (Imap.fold (fun _ c g -> gcd g c) fa.coef 0) in
  g > 1 && (fb.const - fa.const) mod g <> 0

exception Unsettled of unsettled

let shared_rules = [ "barrier"; "disjoint-ranges"; "own-cell"; "gcd" ]
let global_rules = [ "disjoint-ranges"; "own-cell"; "outside-guard"; "block-tile"; "gcd" ]

let prove_race_free ~host_of ~dims_of (r : result) =
  if not r.res_all_proved then
    let a = List.find (fun a -> a.acc_status <> Proved) r.res_accesses in
    Race_unsettled { un_loc = a.acc_loc; un_why = "bounds are not proved"; un_tried = [] }
  else begin
    let syms = r.res_syms in
    let rules = ref [] in
    let use rule = if not (List.mem rule !rules) then rules := rule :: !rules in
    (* accesses grouped by the memory they touch: a host array (several
       parameters may alias it) or a block's shared tile *)
    let groups = Hashtbl.create 16 and order = ref [] in
    List.iter
      (fun a ->
        let key =
          match a.acc_space with Global -> "g:" ^ host_of a.acc_array | Shared -> "s:" ^ a.acc_array
        in
        match Hashtbl.find_opt groups key with
        | Some l -> Hashtbl.replace groups key (a :: l)
        | None ->
            order := key :: !order;
            Hashtbl.replace groups key [ a ])
      r.res_accesses;
    let describe a =
      Printf.sprintf "%s of %s at %s" (if a.acc_write then "write" else "read") a.acc_array
        (Loc.pp a.acc_loc)
    in
    let settle a b self =
      let shared = a.acc_space = Shared in
      let unsettled why tried = raise (Unsettled { un_loc = a.acc_loc; un_why = why; un_tried = tried }) in
      if self then
        if not shared then use "same-site"
        else
          match a.acc_form with
          | Some f when own_cell syms ~shared f f -> use "injective-write"
          | _ -> unsettled (describe a ^ " is not injective in the thread id") [ "injective-write" ]
      else if shared && a.acc_interval <> b.acc_interval then use "barrier"
      else if regions_disjoint a.acc_range b.acc_range then use "disjoint-ranges"
      else
        match (a.acc_form, b.acc_form) with
        | Some fa, Some fb when own_cell syms ~shared fa fb -> use "own-cell"
        | forms -> (
            let dims = if shared then [] else Option.value ~default:[] (dims_of (host_of a.acc_array)) in
            match (apart syms dims a b, forms) with
            | Some rule, _ -> use rule
            | None, (Some fa, Some fb) when block_tile syms dims a b fa fb ->
                use "block-tile"
            | None, (Some fa, Some fb) when gcd_apart fa fb -> use "gcd"
            | None, _ ->
                unsettled (describe a ^ " may meet " ^ describe b)
                  (if shared then shared_rules else global_rules))
    in
    let pin_fact f = { f with f_form = pin syms f.f_form } in
    let pinned a =
      {
        a with
        acc_form = Option.map (pin syms) a.acc_form;
        acc_facts = List.map pin_fact a.acc_facts;
        acc_outside = List.map (List.map pin_fact) a.acc_outside;
      }
    in
    match
      List.iter
        (fun key ->
          let accs = Array.of_list (List.rev_map pinned (Hashtbl.find groups key)) in
          if not (Array.exists (fun a -> a.acc_write) accs) then use "read-only"
          else
            Array.iteri
              (fun i a ->
                for j = i to Array.length accs - 1 do
                  let b = accs.(j) in
                  if a.acc_write || b.acc_write then settle a b (i = j)
                done)
              accs)
        (List.rev !order)
    with
    | () -> Race_free (List.sort compare !rules)
    | exception Unsettled u -> Race_unsettled u
  end
