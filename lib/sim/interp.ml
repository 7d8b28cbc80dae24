open Kft_cuda.Ast
module Engine = Kft_engine.Engine
module Trace = Kft_trace.Trace
module A1 = Bigarray.Array1

type stats = {
  mutable global_read_bytes : int;
  mutable global_write_bytes : int;
  mutable flops : float;
  mutable warp_cond_evals : int;
  mutable divergent_warp_cond_evals : int;
  mutable shared_hazards : int;
  mutable threads_launched : int;
  mutable threads_active : int;
  shared_bytes_per_block : int;
  blocks_launched : int;
}

let divergence_fraction s =
  if s.warp_cond_evals = 0 then 0.0
  else float_of_int s.divergent_warp_cond_evals /. float_of_int s.warp_cond_evals

let copy_stats s = { s with global_read_bytes = s.global_read_bytes }

let zero_stats ~shared_bytes_per_block ~blocks_launched =
  {
    global_read_bytes = 0;
    global_write_bytes = 0;
    flops = 0.0;
    warp_cond_evals = 0;
    divergent_warp_cond_evals = 0;
    shared_hazards = 0;
    threads_launched = 0;
    threads_active = 0;
    shared_bytes_per_block;
    blocks_launched;
  }

(* Per-block counter deltas against a snapshot taken at block entry. All
   flop addends are [float_of_int] of static counts, so every partial sum
   is an exactly-represented integer and the subtraction is exact: the
   per-block deltas re-summed in block order reproduce the sequential
   accumulator bit for bit. *)
let diff_stats cur base =
  {
    global_read_bytes = cur.global_read_bytes - base.global_read_bytes;
    global_write_bytes = cur.global_write_bytes - base.global_write_bytes;
    flops = cur.flops -. base.flops;
    warp_cond_evals = cur.warp_cond_evals - base.warp_cond_evals;
    divergent_warp_cond_evals =
      cur.divergent_warp_cond_evals - base.divergent_warp_cond_evals;
    shared_hazards = cur.shared_hazards - base.shared_hazards;
    threads_launched = 0;
    threads_active = cur.threads_active - base.threads_active;
    shared_bytes_per_block = cur.shared_bytes_per_block;
    blocks_launched = 1;
  }

exception Sim_error of { kernel : string; message : string }

exception Thread_exit

(* Single-float-field record: OCaml stores the field flat (unboxed), so
   [acc.v <- x] is a plain store (see [st.acc]). *)
type facc = { mutable v : float }

(* ------------------------------------------------------------------ *)
(* Compilation environment                                             *)
(* ------------------------------------------------------------------ *)

type binding =
  | Const_int of int
  | Const_float of float
  | Int_slot of int
  | Float_slot of int
  | Global of Memory.buf
  | Shared of int * int list  (* slot, declared dims *)

type st = {
  kernel_name : string;
  bx : int;
  by : int;
  bz : int;
  nthreads : int;
  txs : int array;
  tys : int array;
  tzs : int array;
  zeros : int array;  (* a register that is always 0: constant indexes *)
  mutable bix : int;
  mutable biy : int;
  mutable biz : int;
  iregs : int array array;  (* slot-major: iregs.(slot).(thread) *)
  fregs : float array array;
  shmem : float array array;
  sh_writer : int array array;
  sh_epoch : int array array;
  mutable epoch : int;
  alive : bool array;
  stats : stats;
  has_return : bool;  (* no [return] anywhere: threads can never die *)
  fast : bool;
      (* compile the optimized closure forms (fused index reads, unsafe
         register-file accesses behind the interpreter's own bounds
         checks, single-pass guard evaluation). [false] keeps the plain
         reference compilation, which the bit-identity tests run the
         optimized path against. *)
  read_flags : (string, bool ref) Hashtbl.t;
  write_flags : (string, bool ref) Hashtbl.t;
  acc : facc;
      (* float-expression accumulator for the fast path: compiled float
         closures are [int -> unit] writing here instead of returning a
         float, because a float returned across an indirect call is
         boxed — an allocation per expression node per thread. The store
         to a single-float-field record is flat. *)
  flacc : facc;
      (* fast-path flop accumulator; folded into [stats.flops] once per
         block (a [float] store into the mixed [stats] record boxes) *)
}

let err st msg = raise (Sim_error { kernel = st.kernel_name; message = msg })

(* test hook: when set, every in-bounds global access on the
   interpretive (non-affine) path reports (write, array, linear index);
   the optimized affine path does not trace, so run with [affine:false].
   Used by the absint footprint-soundness property tests. *)
let access_trace : (write:bool -> string -> int -> unit) option ref = ref None

let usage_flag tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref false in
      Hashtbl.replace tbl name r;
      r

(* ------------------------------------------------------------------ *)
(* Type inference over the subset                                      *)
(* ------------------------------------------------------------------ *)

type ety = EInt | EFloat

let join a b = match (a, b) with EInt, EInt -> EInt | _ -> EFloat

let rec ty_of lookup e =
  match e with
  | Int_lit _ -> EInt
  | Double_lit _ -> EFloat
  | Builtin _ -> EInt
  | Var v -> (
      match lookup v with
      | Const_int _ | Int_slot _ -> EInt
      | Const_float _ | Float_slot _ -> EFloat
      | Global _ | Shared _ -> EFloat)
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> join (ty_of lookup a) (ty_of lookup b)
  | Binop (_, _, _) -> EInt
  | Unop (Not, _) -> EInt
  | Unop (Neg, a) -> ty_of lookup a
  | Index _ -> EFloat
  | Call (("min" | "max" | "abs"), args) ->
      List.fold_left (fun acc a -> join acc (ty_of lookup a)) EInt args
  | Call _ -> EFloat
  | Ternary (_, a, b) -> join (ty_of lookup a) (ty_of lookup b)

(* static flop count of an expression (arithmetic on any operands;
   integer index arithmetic is excluded by construction because we only
   charge flops for float-typed subtrees) *)
let rec float_flops lookup e =
  match ty_of lookup e with
  | EInt -> 0
  | EFloat -> (
      match e with
      | Int_lit _ | Double_lit _ | Var _ | Builtin _ | Index _ -> 0
      | Binop ((Add | Sub | Mul | Div | Mod), a, b) ->
          1 + float_flops lookup a + float_flops lookup b
      | Binop (_, a, b) -> float_flops lookup a + float_flops lookup b
      | Unop (_, a) -> float_flops lookup a
      | Call ("fma", args) -> 2 + List.fold_left (fun acc a -> acc + float_flops lookup a) 0 args
      | Call (("sqrt" | "exp" | "log" | "pow" | "sin" | "cos"), args) ->
          4 + List.fold_left (fun acc a -> acc + float_flops lookup a) 0 args
      | Call (_, args) -> List.fold_left (fun acc a -> acc + float_flops lookup a) 0 args
      | Ternary (c, a, b) ->
          float_flops lookup c + max (float_flops lookup a) (float_flops lookup b))

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let shared_oob st name i d =
  err st (Printf.sprintf "shared array %s index %d out of bounds [0,%d)" name i d)

let shared_addr st dims idx_fns name t =
  let rec go dims fns acc =
    match (dims, fns) with
    | [], [] -> acc
    | d :: dims', f :: fns' ->
        let i = f t in
        if i < 0 || i >= d then shared_oob st name i d else go dims' fns' ((acc * d) + i)
    | _ -> err st (Printf.sprintf "shared array %s: wrong number of indices" name)
  in
  go dims idx_fns 0

(* Left-leaning [+]/[-] chains, leftmost term first, as [(is_add, term)]
   pairs: [a + b - c] yields [(true, a); (true, b); (false, c)]. The
   chain follows the left spine only while the node is float-typed, so
   an int-typed prefix stays one term and keeps its integer arithmetic. *)
let rec float_sum_terms lookup e acc =
  match e with
  | Binop (((Add | Sub) as op), l, r) when ty_of lookup e = EFloat ->
      float_sum_terms lookup l ((op = Add, r) :: acc)
  | _ -> (true, e) :: acc

(* compile-time integer constants: literals, bound scalar parameters and
   non-trapping arithmetic over them (Div/Mod are left to the runtime so
   a division by zero still raises per-thread, as the reference does) *)
let rec static_int lookup e =
  match e with
  | Int_lit i -> Some i
  | Var v -> ( match lookup v with Const_int i -> Some i | _ -> None)
  | Binop (op, a, b) -> (
      match (static_int lookup a, static_int lookup b) with
      | Some x, Some y -> (
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div | Mod -> None
          | Lt -> Some (if x < y then 1 else 0)
          | Le -> Some (if x <= y then 1 else 0)
          | Gt -> Some (if x > y then 1 else 0)
          | Ge -> Some (if x >= y then 1 else 0)
          | Eq -> Some (if x = y then 1 else 0)
          | Ne -> Some (if x <> y then 1 else 0)
          | And -> Some (if x <> 0 && y <> 0 then 1 else 0)
          | Or -> Some (if x <> 0 || y <> 0 then 1 else 0))
      | _ -> None)
  | Unop (Neg, a) -> Option.map (fun x -> -x) (static_int lookup a)
  | Unop (Not, a) -> Option.map (fun x -> if x = 0 then 1 else 0) (static_int lookup a)
  | _ -> None

(* compile-time float constants (literals and bound scalar parameters) *)
let const_float_of lookup e =
  match e with
  | Double_lit f -> Some f
  | Int_lit i -> Some (float_of_int i)
  | Var v -> (
      match lookup v with
      | Const_float f -> Some f
      | Const_int i -> Some (float_of_int i)
      | _ -> None)
  | _ -> None

(* number of global-array reads one evaluation of [e] performs, or
   [None] when the count is data-dependent (a [Ternary] picks a branch
   at run time). Shared-memory reads are excluded: they do not touch
   [global_read_bytes] and keep their per-access hazard accounting. *)
let static_read_count lookup e =
  let rec go e =
    match e with
    | Index (a, _) -> ( match lookup a with Global _ -> 1 | _ -> 0)
    | Binop (_, a, b) -> go a + go b
    | Unop (_, a) -> go a
    | Call (_, args) -> List.fold_left (fun acc a -> acc + go a) 0 args
    | Ternary _ -> raise Exit
    | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> 0
  in
  try Some (go e) with Exit -> None

(* An integer expression as the linear form [c + Σ k·reg + Σ b_d·blockIdx_d],
   each register (an int register file or a threadIdx array) listed once
   with a nonzero coefficient. Integer arithmetic wraps modulo 2^63, a
   ring, so regrouping the reference's operations this way is bit-exact. *)
type linear = { c : int; regs : (int array * int) list; bk : int * int * int }

let lin_const c = { c; regs = []; bk = (0, 0, 0) }

let lin_scale k { c; regs; bk = x, y, z } =
  {
    c = k * c;
    regs = List.filter (fun (_, m) -> m <> 0) (List.map (fun (a, m) -> (a, k * m)) regs);
    bk = (k * x, k * y, k * z);
  }

let lin_add p q =
  let add regs (a, k) =
    match List.assq_opt a regs with
    | None -> regs @ [ (a, k) ]
    | Some m ->
        let rest = List.filter (fun (b, _) -> b != a) regs in
        if k + m = 0 then rest else rest @ [ (a, k + m) ]
  in
  let x, y, z = p.bk and x', y', z' = q.bk in
  { c = p.c + q.c; regs = List.fold_left add p.regs q.regs; bk = (x + x', y + y', z + z') }

(* [None] unless [e] is built from [+], [-], unary [-] and [*] by a
   compile-time constant over int registers, threadIdx, blockIdx and
   static ints; anything else keeps its reference compilation *)
let rec linear_form st lookup e =
  let reg a = Some { (lin_const 0) with regs = [ (a, 1) ] } in
  match e with
  | Var v -> (
      match lookup v with
      | Int_slot s -> reg st.iregs.(s)
      | Const_int c -> Some (lin_const c)
      | _ -> None)
  | Builtin (Thread_idx d) -> reg (match d with X -> st.txs | Y -> st.tys | Z -> st.tzs)
  | Builtin (Block_idx d) ->
      let bk = match d with X -> (1, 0, 0) | Y -> (0, 1, 0) | Z -> (0, 0, 1) in
      Some { (lin_const 0) with bk }
  | Binop (((Add | Sub) as op), a, b) -> (
      match (linear_form st lookup a, linear_form st lookup b) with
      | Some p, Some q -> Some (lin_add p (if op = Add then q else lin_scale (-1) q))
      | _ -> None)
  | Binop (Mul, a, b) -> (
      match (linear_form st lookup a, linear_form st lookup b) with
      | Some p, Some { c = k; regs = []; bk = 0, 0, 0 }
      | Some { c = k; regs = []; bk = 0, 0, 0 }, Some p ->
          Some (lin_scale k p)
      | _ -> None)
  | Unop (Neg, a) -> Option.map (lin_scale (-1)) (linear_form st lookup a)
  | _ -> Option.map lin_const (static_int lookup e)

(* [e] as one register read in place at a constant offset: [1·reg + c],
   or a constant, read from a register of zeros *)
let reg_offset st lookup e =
  match linear_form st lookup e with
  | Some { c; regs = [ (a, 1) ]; bk = 0, 0, 0 } -> Some (a, c)
  | Some { c; regs = []; bk = 0, 0, 0 } -> Some (st.zeros, c)
  | _ -> None

(* A linear form in one closure. The exec loops keep the thread id inside
   [0, nthreads), so unchecked register reads are safe. *)
let compile_linear st { c; regs; bk = kx, ky, kz } : int -> int =
  let ra = Array.of_list (List.map fst regs) and ka = Array.of_list (List.map snd regs) in
  let n = Array.length ra in
  let sum t =
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := !s + (Array.unsafe_get ka i * Array.unsafe_get (Array.unsafe_get ra i) t)
    done;
    !s
  in
  if kx = 0 && ky = 0 && kz = 0 then
    match regs with
    | [] -> fun _ -> c
    | [ (a, 1) ] -> fun t -> Array.unsafe_get a t + c
    | [ (a, k) ] -> fun t -> (k * Array.unsafe_get a t) + c
    | [ (a, k); (b, m) ] -> fun t -> (k * Array.unsafe_get a t) + (m * Array.unsafe_get b t) + c
    | _ -> fun t -> sum t + c
  else
    (* the blockIdx part is fixed for the block being run *)
    match regs with
    | [] -> fun _ -> c + (kx * st.bix) + (ky * st.biy) + (kz * st.biz)
    | [ (a, k) ] ->
        fun t -> (k * Array.unsafe_get a t) + c + (kx * st.bix) + (ky * st.biy) + (kz * st.biz)
    | _ -> fun t -> sum t + c + (kx * st.bix) + (ky * st.biy) + (kz * st.biz)

(* the outcomes of a comparison [x op y] as 0/1 when [x < y], [x = y],
   [x > y] and when a NaN leaves the operands unordered *)
let cmp_outcomes = function
  | Lt -> Some (1, 0, 0, 0)
  | Le -> Some (1, 1, 0, 0)
  | Gt -> Some (0, 0, 1, 0)
  | Ge -> Some (0, 1, 1, 0)
  | Eq -> Some (0, 1, 0, 0)
  | Ne -> Some (1, 0, 1, 1)
  | Add | Sub | Mul | Div | Mod | And | Or -> None

let mirror = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op

(* A 1-D or 2-D tile access whose index on each dimension is [reg + c] or
   a constant, as [(d0, r0, c0, d1, r1, c1)]; a 1-D tile is a 2-D one
   with a leading dimension of size 1 indexed by 0. Other accesses go
   through [shared_addr]. *)
let tile_index st lookup dims idxs =
  match (dims, List.map (reg_offset st lookup) idxs) with
  | [ d1 ], [ Some (r1, c1) ] -> Some (1, st.zeros, 0, d1, r1, c1)
  | [ d0; d1 ], [ Some (r0, c0); Some (r1, c1) ] -> Some (d0, r0, c0, d1, r1, c1)
  | _ -> None

(* [shared_addr]'s per-dimension checks, in its order and with its
   messages, reading the index registers in place *)
let[@inline] tile_addr st name d0 r0 c0 d1 r1 c1 t =
  let i = Array.unsafe_get r0 t + c0 in
  if i < 0 || i >= d0 then shared_oob st name i d0
  else
    let k = Array.unsafe_get r1 t + c1 in
    if k < 0 || k >= d1 then shared_oob st name k d1 else (i * d1) + k

(* a read of tile cell [i] another thread wrote since the last barrier *)
let[@inline] note_hazard st writer written i t =
  if Array.unsafe_get written i = st.epoch then begin
    let w = Array.unsafe_get writer i in
    if w <> t && w >= 0 then st.stats.shared_hazards <- st.stats.shared_hazards + 1
  end

(* A float operand on the fast path. A register, a compile-time constant
   or a register scaled by a constant ([reg * k], or [k * reg] when
   [reg_left] is false) is read inside its parent's closure; anything
   else is a child closure that deposits its value in [st.acc]. *)
type operand =
  | Reg of float array
  | Imm of float
  | Scaled of float array * float * bool
  | Clo of (int -> unit)

let[@inline] scaled a k reg_left t =
  if reg_left then Array.unsafe_get a t *. k else k *. Array.unsafe_get a t

let[@inline] read_operand acc o t =
  match o with
  | Reg a -> Array.unsafe_get a t
  | Imm c -> c
  | Scaled (a, k, reg_left) -> scaled a k reg_left t
  | Clo f ->
      f t;
      acc.v

let[@inline] arith op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | _ -> Float.rem x y

(* [l op r] in one closure. Operand order is kept, so rounding is the
   reference's bit for bit; a register read after the other operand's
   closure ran sees the same value, since expressions never write
   registers. [+] and [*], the hot operators, are spelled out: matching
   on [op] per evaluation costs about as much as the arithmetic. *)
let float_binop st op l r : int -> unit =
  let acc = st.acc in
  match (op, l, r) with
  | (Add | Sub | Mul | Div | Mod), Imm x, Imm y ->
      let v = arith op x y in
      fun _ -> acc.v <- v
  | Add, Reg a, Imm y -> fun t -> acc.v <- Array.unsafe_get a t +. y
  | Add, Imm x, Reg b -> fun t -> acc.v <- x +. Array.unsafe_get b t
  | Add, Reg a, Reg b -> fun t -> acc.v <- Array.unsafe_get a t +. Array.unsafe_get b t
  | Add, Clo f, Imm y -> fun t -> f t; acc.v <- acc.v +. y
  | Add, Imm x, Clo g -> fun t -> g t; acc.v <- x +. acc.v
  | Add, Clo f, Reg b -> fun t -> f t; acc.v <- acc.v +. Array.unsafe_get b t
  | Add, Reg a, Clo g -> fun t -> g t; acc.v <- Array.unsafe_get a t +. acc.v
  | Add, Clo f, Clo g -> fun t -> f t; let x = acc.v in g t; acc.v <- x +. acc.v
  | Mul, Reg a, Imm y -> fun t -> acc.v <- Array.unsafe_get a t *. y
  | Mul, Imm x, Reg b -> fun t -> acc.v <- x *. Array.unsafe_get b t
  | Mul, Reg a, Reg b -> fun t -> acc.v <- Array.unsafe_get a t *. Array.unsafe_get b t
  | Mul, Clo f, Imm y -> fun t -> f t; acc.v <- acc.v *. y
  | Mul, Imm x, Clo g -> fun t -> g t; acc.v <- x *. acc.v
  | Mul, Clo f, Reg b -> fun t -> f t; acc.v <- acc.v *. Array.unsafe_get b t
  | Mul, Reg a, Clo g -> fun t -> g t; acc.v <- Array.unsafe_get a t *. acc.v
  | Mul, Clo f, Clo g -> fun t -> f t; let x = acc.v in g t; acc.v <- x *. acc.v
  | (Sub | Div | Mod), Reg a, Imm y -> fun t -> acc.v <- arith op (Array.unsafe_get a t) y
  | (Sub | Div | Mod), Imm x, Reg b -> fun t -> acc.v <- arith op x (Array.unsafe_get b t)
  | (Sub | Div | Mod), Reg a, Reg b ->
      fun t -> acc.v <- arith op (Array.unsafe_get a t) (Array.unsafe_get b t)
  | (Sub | Div | Mod), Clo f, Imm y -> fun t -> f t; acc.v <- arith op acc.v y
  | (Sub | Div | Mod), Imm x, Clo g -> fun t -> g t; acc.v <- arith op x acc.v
  | (Sub | Div | Mod), Clo f, Reg b -> fun t -> f t; acc.v <- arith op acc.v (Array.unsafe_get b t)
  | (Sub | Div | Mod), Reg a, Clo g -> fun t -> g t; acc.v <- arith op (Array.unsafe_get a t) acc.v
  | (Sub | Div | Mod), Clo f, Clo g -> fun t -> f t; let x = acc.v in g t; acc.v <- arith op x acc.v
  | Add, Scaled (a, k, rl), Imm y -> fun t -> acc.v <- scaled a k rl t +. y
  | Sub, Scaled (a, k, rl), Imm y -> fun t -> acc.v <- scaled a k rl t -. y
  | (Add | Sub | Mul | Div | Mod), _, _ ->
      (* the other shapes with a scaled operand *)
      fun t ->
        let x = read_operand acc l t in
        acc.v <- arith op x (read_operand acc r t)
  | _ -> err st "comparison in float context"

(* a [+]/[-] chain of any length in one closure, left to right, the
   reference's association order and hence its rounding. A chain of
   registers only (the compute-bound kernels' sum) or of closures only
   (a stencil's reads) skips the per-term operand match. *)
let float_sum_chain st terms : int -> unit =
  let acc = st.acc in
  let adds = Array.of_list (List.map fst terms) and ops = Array.of_list (List.map snd terms) in
  let n = Array.length ops in
  let all f =
    let xs = List.filter_map (fun (_, o) -> f o) terms in
    if List.compare_lengths xs terms = 0 then Some (Array.of_list xs) else None
  in
  let regs = all (function Reg a -> Some a | _ -> None)
  and clos = all (function Clo f -> Some f | _ -> None) in
  match (regs, clos) with
  | Some regs, _ ->
      fun t ->
        let s = ref (Array.unsafe_get (Array.unsafe_get regs 0) t) in
        for i = 1 to n - 1 do
          let x = Array.unsafe_get (Array.unsafe_get regs i) t in
          s := if Array.unsafe_get adds i then !s +. x else !s -. x
        done;
        acc.v <- !s
  | _, Some fs ->
      fun t ->
        (Array.unsafe_get fs 0) t;
        let s = ref acc.v in
        for i = 1 to n - 1 do
          (Array.unsafe_get fs i) t;
          let x = acc.v in
          s := if Array.unsafe_get adds i then !s +. x else !s -. x
        done;
        acc.v <- !s
  | _ ->
      fun t ->
        let s = ref (read_operand acc (Array.unsafe_get ops 0) t) in
        for i = 1 to n - 1 do
          let x = read_operand acc (Array.unsafe_get ops i) t in
          s := if Array.unsafe_get adds i then !s +. x else !s -. x
        done;
        acc.v <- !s

(* [e] as a comparison of an int register against a compile-time
   constant, [(op, outcomes, reg, c)]; [c op reg] is [reg op' c] with
   [op] mirrored *)
let reg_cmp st lookup e =
  let reg e = match reg_offset st lookup e with Some (r, 0) -> Some r | _ -> None in
  match e with
  | Binop (op, a, b) -> (
      let shape =
        match (reg a, static_int lookup b, static_int lookup a, reg b) with
        | Some r, Some c, _, _ -> Some (op, r, c)
        | _, _, Some c, Some r -> Some (mirror op, r, c)
        | _ -> None
      in
      match shape with
      | Some (op, r, c) -> Option.map (fun o -> (op, o, r, c)) (cmp_outcomes op)
      | None -> None)
  | _ -> None

(* [e] as register ranges [lo <= reg <= hi] that all hold exactly when
   [e] does: an [&&] chain of [reg_cmp] compares other than [!=]. The
   compares are pure, so the ranges on one register intersect into one
   check and their order does not matter. *)
let rec reg_ranges st lookup e =
  match e with
  | Binop (And, a, b) -> (
      match (reg_ranges st lookup a, reg_ranges st lookup b) with
      | Some p, Some q ->
          let meet acc (r, lo, hi) =
            match List.partition (fun (q, _, _) -> q == r) acc with
            | [ (_, lo', hi') ], rest -> (r, max lo lo', min hi hi') :: rest
            | _ -> (r, lo, hi) :: acc
          in
          Some (List.fold_left meet p q)
      | _ -> None)
  | _ -> (
      (* an empty range is [(1, 0)] *)
      match reg_cmp st lookup e with
      | Some (Lt, _, r, c) -> Some [ (if c = min_int then (r, 1, 0) else (r, min_int, c - 1)) ]
      | Some (Le, _, r, c) -> Some [ (r, min_int, c) ]
      | Some (Gt, _, r, c) -> Some [ (if c = max_int then (r, 1, 0) else (r, c + 1, max_int)) ]
      | Some (Ge, _, r, c) -> Some [ (r, c, max_int) ]
      | Some (Eq, _, r, c) -> Some [ (r, c, c) ]
      | _ -> None)

(* register ranges in one closure, 1 when all hold *)
let compile_ranges (ranges : (int array * int * int) list) : int -> int =
  match ranges with
  | [ (r, lo, hi) ] ->
      fun t ->
        let x = Array.unsafe_get r t in
        if lo <= x && x <= hi then 1 else 0
  | _ ->
      let ra = Array.of_list (List.map (fun (r, _, _) -> r) ranges)
      and los = Array.of_list (List.map (fun (_, lo, _) -> lo) ranges)
      and his = Array.of_list (List.map (fun (_, _, hi) -> hi) ranges) in
      let n = Array.length ra in
      fun t ->
        let i = ref 0 in
        while
          !i < n
          &&
          let x = Array.unsafe_get (Array.unsafe_get ra !i) t in
          Array.unsafe_get los !i <= x && x <= Array.unsafe_get his !i
        do
          incr i
        done;
        if !i = n then 1 else 0

(* Fast-path integer compilation: a linear form is one closure; the rest
   keeps the reference operators, with two peepholes. *)
let rec compile_int st lookup e : int -> int =
  match (if st.fast then linear_form st lookup e else None) with
  | Some l -> compile_linear st l
  | None -> (
  match e with
  | Int_lit i -> fun _ -> i
  | Builtin b -> (
      let { txs; tys; tzs; _ } = st in
      match b with
      | Thread_idx X -> fun t -> txs.(t)
      | Thread_idx Y -> fun t -> tys.(t)
      | Thread_idx Z -> fun t -> tzs.(t)
      | Block_idx X -> fun _ -> st.bix
      | Block_idx Y -> fun _ -> st.biy
      | Block_idx Z -> fun _ -> st.biz
      | Block_dim _ | Grid_dim _ -> err st "blockDim/gridDim must be compiled to constants")
  | Var v -> (
      match lookup v with
      | Const_int i -> fun _ -> i
      | Int_slot s ->
          let arr = st.iregs.(s) in
          fun t -> arr.(t)
      | Const_float _ | Float_slot _ -> err st (Printf.sprintf "variable %s used as integer but is double" v)
      | Global _ | Shared _ -> err st (Printf.sprintf "array %s used as scalar" v))
  (* a nonzero constant divisor needs no per-thread zero test; a zero
     one keeps the reference's per-thread error *)
  | Binop (((Div | Mod) as op), a, b) when st.fast -> (
      match static_int lookup b with
      | Some c when c <> 0 -> (
          match reg_offset st lookup a with
          | Some (r, off) ->
              if op = Div then fun t -> (Array.unsafe_get r t + off) / c
              else fun t -> (Array.unsafe_get r t + off) mod c
          | None ->
              let fa = compile_int st lookup a in
              if op = Div then fun t -> fa t / c else fun t -> fa t mod c)
      | _ -> compile_int_binop st lookup op a b)
  (* a guard compare of a register against a compile-time constant in
     one closure *)
  | Binop (op, a, b) when st.fast -> (
      match reg_cmp st lookup e with
      | Some (_, (lt, eq, gt, _), r, c) ->
          fun t ->
            let x = Array.unsafe_get r t in
            if x < c then lt else if x > c then gt else eq
      | None -> compile_int_binop st lookup op a b)
  | Binop (op, a, b) -> compile_int_binop st lookup op a b
  | Unop (Neg, a) ->
      let f = compile_int st lookup a in
      fun t -> -f t
  | Unop (Not, a) ->
      let f = compile_int st lookup a in
      fun t -> if f t = 0 then 1 else 0
  | Call ("min", [ a; b ]) ->
      let fa = compile_int st lookup a and fb = compile_int st lookup b in
      fun t -> min (fa t) (fb t)
  | Call ("max", [ a; b ]) ->
      let fa = compile_int st lookup a and fb = compile_int st lookup b in
      fun t -> max (fa t) (fb t)
  | Call ("abs", [ a ]) ->
      let f = compile_int st lookup a in
      fun t -> abs (f t)
  | Ternary (c, a, b) ->
      let fc = compile_int st lookup c
      and fa = compile_int st lookup a
      and fb = compile_int st lookup b in
      fun t -> if fc t <> 0 then fa t else fb t
  | Double_lit _ -> err st "double literal in integer context"
  | Index (a, _) -> err st (Printf.sprintf "array %s read in integer context" a)
  | Call (f, _) -> err st (Printf.sprintf "call to %s in integer context" f))

(* the reference integer operators; Div/Mod test the divisor per
   thread so a division by zero raises where it happens *)
and compile_int_binop st lookup op a b : int -> int =
  let fa = compile_int st lookup a and fb = compile_int st lookup b in
  match op with
  | Add -> fun t -> fa t + fb t
  | Sub -> fun t -> fa t - fb t
  | Mul -> fun t -> fa t * fb t
  | Div ->
      fun t ->
        let d = fb t in
        if d = 0 then err st "integer division by zero" else fa t / d
  | Mod ->
      fun t ->
        let d = fb t in
        if d = 0 then err st "integer modulo by zero" else fa t mod d
  | Lt -> fun t -> if fa t < fb t then 1 else 0
  | Le -> fun t -> if fa t <= fb t then 1 else 0
  | Gt -> fun t -> if fa t > fb t then 1 else 0
  | Ge -> fun t -> if fa t >= fb t then 1 else 0
  | Eq -> fun t -> if fa t = fb t then 1 else 0
  | Ne -> fun t -> if fa t <> fb t then 1 else 0
  | And -> fun t -> if fa t <> 0 && fb t <> 0 then 1 else 0
  | Or -> fun t -> if fa t <> 0 || fb t <> 0 then 1 else 0

(* Comparison/logic over possibly-float operands, yielding int 0/1. *)
and compile_cond st lookup e : int -> int =
  let float_cmp =
    match e with
    | Binop (op, a, b) when join (ty_of lookup a) (ty_of lookup b) = EFloat ->
        Option.map (fun o -> (o, a, b)) (cmp_outcomes op)
    | _ -> None
  in
  match (float_cmp, e) with
  | Some ((lt, eq, gt, un), a, b), _ ->
      if st.fast then
        (* accumulator form, the comparison spelled out: a float returned
           from a closure or passed to a call would be boxed *)
        let acc = st.acc and stats = st.stats in
        let sreads = static_read_count lookup e in
        let rb = 8 * Option.value sreads ~default:0 in
        let fa = acompile_float ~count:(sreads = None) st lookup a
        and fb = acompile_float ~count:(sreads = None) st lookup b in
        fun t ->
          fa t;
          let x = acc.v in
          fb t;
          let y = acc.v in
          stats.global_read_bytes <- stats.global_read_bytes + rb;
          if x < y then lt else if x > y then gt else if x = y then eq else un
      else
        let fa = compile_float st lookup a and fb = compile_float st lookup b in
        (* the right operand first, as in an application [cmp (fa t) (fb t)] *)
        fun t ->
          let y = fb t in
          let x = fa t in
          if x < y then lt else if x > y then gt else if x = y then eq else un
  | None, Binop (And, a, b) -> (
      match if st.fast then reg_ranges st lookup e else None with
      | Some ranges -> compile_ranges ranges
      | None ->
          let fa = compile_cond st lookup a and fb = compile_cond st lookup b in
          fun t -> if fa t <> 0 && fb t <> 0 then 1 else 0)
  | None, Binop (Or, a, b) ->
      let fa = compile_cond st lookup a and fb = compile_cond st lookup b in
      fun t -> if fa t <> 0 || fb t <> 0 then 1 else 0
  | None, Unop (Not, a) ->
      let f = compile_cond st lookup a in
      fun t -> if f t = 0 then 1 else 0
  | None, e -> compile_int st lookup e

(* Reference float compilation ([st.fast = false] launches): closures
   return their float (boxed per indirect call — fine for the reference
   semantics the bit-identity tests diff the fast paths against), every
   global read is individually checked, counted and access-traced. *)
and compile_float st lookup e : int -> float =
  match ty_of lookup e with
  | EInt ->
      let f = compile_int st lookup e in
      fun t -> float_of_int (f t)
  | EFloat -> (
      match e with
      | Double_lit f -> fun _ -> f
      | Var v -> (
          match lookup v with
          | Const_float f -> fun _ -> f
          | Float_slot s ->
              let arr = st.fregs.(s) in
              fun t -> arr.(t)
          | Const_int i -> fun _ -> float_of_int i
          | Int_slot s ->
              let arr = st.iregs.(s) in
              fun t -> float_of_int arr.(t)
          | Global _ | Shared _ -> err st (Printf.sprintf "array %s used as scalar" v))
      | Index (a, idxs) -> (
          match lookup a with
          | Global data ->
              let idx =
                match idxs with
                | [ i ] -> compile_int st lookup i
                | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
              in
              let n = A1.dim data in
              let stats = st.stats in
              let touched = usage_flag st.read_flags a in
              fun t ->
                let i = idx t in
                if i < 0 || i >= n then
                  err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
                else begin
                  (match !access_trace with Some f -> f ~write:false a i | None -> ());
                  stats.global_read_bytes <- stats.global_read_bytes + 8;
                  touched := true;
                  A1.unsafe_get data i
                end
          | Shared (slot, dims) ->
              let idx_fns = List.map (compile_int st lookup) idxs in
              let stats = st.stats in
              fun t ->
                let addr = shared_addr st dims idx_fns a t in
                if st.sh_epoch.(slot).(addr) = st.epoch && st.sh_writer.(slot).(addr) <> t
                   && st.sh_writer.(slot).(addr) >= 0
                then stats.shared_hazards <- stats.shared_hazards + 1;
                st.shmem.(slot).(addr)
          | _ -> err st (Printf.sprintf "%s indexed but is not an array" a))
      | Binop (op, a, b) -> (
          let fa = compile_float st lookup a
          and fb = compile_float st lookup b in
          match op with
          | Add -> fun t -> fa t +. fb t
          | Sub -> fun t -> fa t -. fb t
          | Mul -> fun t -> fa t *. fb t
          | Div -> fun t -> fa t /. fb t
          | Mod -> fun t -> Float.rem (fa t) (fb t)
          | _ -> err st "comparison in float context")
      | Unop (Neg, a) ->
          let f = compile_float st lookup a in
          fun t -> -.f t
      | Unop (Not, _) -> err st "logical not in float context"
      | Ternary (c, a, b) ->
          let fc = compile_cond st lookup c
          and fa = compile_float st lookup a
          and fb = compile_float st lookup b in
          fun t -> if fc t <> 0 then fa t else fb t
      | Call (fname, args) -> (
          let fargs = List.map (compile_float st lookup) args in
          match (fname, fargs) with
          | ("sqrt", [ a ]) -> fun t -> sqrt (a t)
          | ("fabs", [ a ]) | ("abs", [ a ]) -> fun t -> Float.abs (a t)
          | ("exp", [ a ]) -> fun t -> exp (a t)
          | ("log", [ a ]) -> fun t -> log (a t)
          | ("sin", [ a ]) -> fun t -> sin (a t)
          | ("cos", [ a ]) -> fun t -> cos (a t)
          | ("pow", [ a; b ]) -> fun t -> Float.pow (a t) (b t)
          | (("min" | "fmin"), [ a; b ]) -> fun t -> Float.min (a t) (b t)
          | (("max" | "fmax"), [ a; b ]) -> fun t -> Float.max (a t) (b t)
          | ("fma", [ a; b; c ]) -> fun t -> Float.fma (a t) (b t) (c t)
          | _ ->
              err st
                (Printf.sprintf "unsupported function %s/%d" fname (List.length args)))
      | Int_lit _ | Builtin _ -> assert false (* EInt-typed *))

(* Fast-path float compilation: closures deposit their result in
   [st.acc] instead of returning it, so the steady-state inner loop
   performs no allocation at all (a float return across an indirect call
   is boxed by the compiler). Every combination saves the left operand
   in an unboxed local between the two accumulator runs, reproducing the
   reference's left-associative evaluation — and therefore its rounding —
   bit for bit. [count = false] elides the per-read
   [global_read_bytes] bump: the caller has statically counted the reads
   in the whole expression and bumps the total once per statement
   execution. Only valid when the read count is not data-dependent (no
   [Ternary] on any path). *)
and acompile_float ?(count = true) st lookup e : int -> unit =
  let acc = st.acc in
  match ty_of lookup e with
  | EInt ->
      let f = compile_int st lookup e in
      fun t -> acc.v <- float_of_int (f t)
  | EFloat -> (
      match e with
      | Double_lit f -> fun _ -> acc.v <- f
      | Var v -> (
          match lookup v with
          | Const_float f -> fun _ -> acc.v <- f
          | Float_slot s ->
              let arr = st.fregs.(s) in
              fun t -> acc.v <- Array.unsafe_get arr t
          | Const_int i ->
              let f = float_of_int i in
              fun _ -> acc.v <- f
          | Int_slot s ->
              let arr = st.iregs.(s) in
              fun t -> acc.v <- float_of_int (Array.unsafe_get arr t)
          | Global _ | Shared _ -> err st (Printf.sprintf "array %s used as scalar" v))
      | Index (a, idxs) -> (
          match lookup a with
          | Global data -> (
              let single =
                match idxs with
                | [ i ] -> i
                | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
              in
              let n = A1.dim data in
              let stats = st.stats in
              let touched = usage_flag st.read_flags a in
              let oob i =
                err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
              in
              let read =
                match reg_offset st lookup single with
                | Some (r, off) ->
                    fun t ->
                      let i = Array.unsafe_get r t + off in
                      if i < 0 || i >= n then oob i
                      else begin
                        touched := true;
                        acc.v <- A1.unsafe_get data i
                      end
                | None ->
                    let idx = compile_int st lookup single in
                    fun t ->
                      let i = idx t in
                      if i < 0 || i >= n then oob i
                      else begin
                        touched := true;
                        acc.v <- A1.unsafe_get data i
                      end
              in
              (* [count = false]: the statement bumps the byte counter *)
              if count then
                fun t ->
                  read t;
                  stats.global_read_bytes <- stats.global_read_bytes + 8
              else read)
          | Shared (slot, dims) -> (
              (* tiles are refilled in place per block, never reallocated,
                 and an address is in range by its per-dimension checks *)
              let tile = st.shmem.(slot) and writer = st.sh_writer.(slot)
              and written = st.sh_epoch.(slot) in
              match tile_index st lookup dims idxs with
              | Some (d0, r0, c0, d1, r1, c1) ->
                  fun t ->
                    let i = tile_addr st a d0 r0 c0 d1 r1 c1 t in
                    note_hazard st writer written i t;
                    acc.v <- Array.unsafe_get tile i
              | None ->
                  let addr = shared_addr st dims (List.map (compile_int st lookup) idxs) a in
                  fun t ->
                    let i = addr t in
                    note_hazard st writer written i t;
                    acc.v <- Array.unsafe_get tile i)
          | _ -> err st (Printf.sprintf "%s indexed but is not an array" a))
      | Binop (op, a, b) -> (
          match float_sum_terms lookup e [] with
          | _ :: _ :: _ :: _ as terms ->
              float_sum_chain st
                (List.map (fun (add, term) -> (add, float_operand ~count st lookup term)) terms)
          | _ ->
              let l = float_operand ~count st lookup a in
              let r = float_operand ~count st lookup b in
              float_binop st op l r)
      | Unop (Neg, a) ->
          let f = acompile_float ~count st lookup a in
          fun t ->
            f t;
            acc.v <- -.acc.v
      | Unop (Not, _) -> err st "logical not in float context"
      | Ternary (c, a, b) ->
          let fc = compile_cond st lookup c
          and fa = acompile_float st lookup a
          and fb = acompile_float st lookup b in
          fun t -> if fc t <> 0 then fa t else fb t
      | Call (fname, args) -> (
          let fargs = List.map (acompile_float ~count st lookup) args in
          match (fname, fargs) with
          | ("sqrt", [ a ]) ->
              fun t ->
                a t;
                acc.v <- sqrt acc.v
          | ("fabs", [ a ]) | ("abs", [ a ]) ->
              fun t ->
                a t;
                acc.v <- Float.abs acc.v
          | ("exp", [ a ]) ->
              fun t ->
                a t;
                acc.v <- exp acc.v
          | ("log", [ a ]) ->
              fun t ->
                a t;
                acc.v <- log acc.v
          | ("sin", [ a ]) ->
              fun t ->
                a t;
                acc.v <- sin acc.v
          | ("cos", [ a ]) ->
              fun t ->
                a t;
                acc.v <- cos acc.v
          | ("pow", [ a; b ]) ->
              fun t ->
                a t;
                let x = acc.v in
                b t;
                acc.v <- Float.pow x acc.v
          | (("min" | "fmin"), [ a; b ]) ->
              (* Stdlib [Float.min] inlined (its indirect call would box
                 both arguments): same -0.0 / nan discipline, bit for bit *)
              fun t ->
                a t;
                let x = acc.v in
                b t;
                let y = acc.v in
                acc.v <-
                  (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
                     if y <> y then y else x
                   else if x <> x then x
                   else y)
          | (("max" | "fmax"), [ a; b ]) ->
              (* Stdlib [Float.max] inlined, same rationale *)
              fun t ->
                a t;
                let x = acc.v in
                b t;
                let y = acc.v in
                acc.v <-
                  (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
                     if x <> x then x else y
                   else if y <> y then y
                   else x)
          | ("fma", [ a; b; c ]) ->
              fun t ->
                a t;
                let x = acc.v in
                b t;
                let y = acc.v in
                c t;
                acc.v <- Float.fma x y acc.v
          | _ ->
              err st
                (Printf.sprintf "unsupported function %s/%d" fname (List.length args)))
      | Int_lit _ | Builtin _ -> assert false (* EInt-typed *))

and float_operand ~count st lookup e =
  let reg e =
    match e with
    | Var v -> ( match lookup v with Float_slot s -> Some st.fregs.(s) | _ -> None)
    | _ -> None
  in
  match (const_float_of lookup e, e) with
  | Some c, _ -> Imm c
  | None, Binop (Mul, a, b) -> (
      match (reg a, const_float_of lookup b, const_float_of lookup a, reg b) with
      | Some r, Some k, _, _ -> Scaled (r, k, true)
      | _, _, Some k, Some r -> Scaled (r, k, false)
      | _ -> Clo (acompile_float ~count st lookup e))
  | None, _ -> ( match reg e with Some r -> Reg r | None -> Clo (acompile_float ~count st lookup e))

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

type cstmt =
  | Leaf of { fn : int -> unit; cond : (int -> int) option }
  | GLeaf of (int -> int) * (int -> unit) * (int -> unit)
      (* sync-free [If] whose condition is pure integer arithmetic
         (no array reads, calls, or trapping Div/Mod): the condition is
         evaluated once per thread, serving both the warp-divergence
         accounting and the branch dispatch, where [Leaf] evaluates it
         twice. Purity makes the single evaluation observationally
         identical. *)
  | CIf of (int -> int) * cstmt list * cstmt list
  | CFor of {
      set : int -> int -> unit;  (* thread -> value -> () *)
      get_lo : int -> int;
      get_hi : int -> int;
      step : int;
      body : cstmt list;
    }
  | CSync

let stmts_read_var v stmts =
  let found = ref false in
  ignore
    (map_exprs_in_stmts
       (fun e ->
         (match e with Var x when x = v -> found := true | _ -> ());
         e)
       stmts);
  !found

(* integer-only, side-effect-free, non-trapping conditions: evaluating
   them once (GLeaf) or twice (Leaf: divergence pass + dispatch) is
   indistinguishable — no stats, no memory traffic, no Sim_error *)
let rec pure_int_cond lookup e =
  match e with
  | Int_lit _ -> true
  | Builtin (Thread_idx _ | Block_idx _) -> true
  | Builtin _ -> false
  | Var v -> ( match lookup v with Const_int _ | Int_slot _ -> true | _ -> false)
  | Binop ((Div | Mod), _, _) -> false
  | Binop (_, a, b) -> pure_int_cond lookup a && pure_int_cond lookup b
  | Unop (_, a) -> pure_int_cond lookup a
  | Ternary (c, a, b) ->
      pure_int_cond lookup c && pure_int_cond lookup a && pure_int_cond lookup b
  | Double_lit _ | Index _ | Call _ -> false

(* A run of float register statements in one closure: each root
   expression runs and its value is stored, then the run's global-read
   bytes and flops are added once. Every flop addend is an
   integer-valued float, so one sum per run is exact. The per-read byte
   order is only observable on an aborting launch, whose stats are
   unspecified. Entries are [(expression, register file, read bytes,
   flops)]. *)
let reg_run st entries : int -> unit =
  let acc = st.acc and fl = st.flacc and stats = st.stats in
  let rb = List.fold_left (fun s (_, _, b, _) -> s + b) 0 entries
  and flops = List.fold_left (fun s (_, _, _, f) -> s +. f) 0.0 entries in
  match entries with
  | [ (f, dst, _, _) ] ->
      fun t ->
        f t;
        Array.unsafe_set dst t acc.v;
        stats.global_read_bytes <- stats.global_read_bytes + rb;
        fl.v <- fl.v +. flops
  | _ ->
      let fs = Array.of_list (List.map (fun (f, _, _, _) -> f) entries)
      and dsts = Array.of_list (List.map (fun (_, d, _, _) -> d) entries) in
      let n = Array.length fs in
      fun t ->
        for i = 0 to n - 1 do
          (Array.unsafe_get fs i) t;
          Array.unsafe_set (Array.unsafe_get dsts i) t acc.v
        done;
        stats.global_read_bytes <- stats.global_read_bytes + rb;
        fl.v <- fl.v +. flops

(* a fast-path float register statement [slot = e] as a [reg_run] entry,
   and whether its global-read count is static *)
let reg_entry st lookup slot e =
  let sreads = static_read_count lookup e in
  let f = acompile_float ~count:(sreads = None) st lookup e in
  let rb = 8 * Option.value sreads ~default:0 in
  ((f, st.fregs.(slot), rb, float_of_int (float_flops lookup e)), sreads <> None)

(* compile a statement list into a single per-thread closure (no syncs
   inside, guaranteed by caller) *)
let rec compile_thread_fn st lookup stmts : int -> unit =
  let fns =
    if st.fast then compile_runs st lookup stmts
    else List.map (compile_thread_stmt st lookup) stmts
  in
  match fns with
  | [ f ] -> f
  | [ f; g ] when st.fast ->
      fun t ->
        f t;
        g t
  | [ f; g; h ] when st.fast ->
      fun t ->
        f t;
        g t;
        h t
  | fns when st.fast ->
      let a = Array.of_list fns in
      let n = Array.length a in
      fun t ->
        for i = 0 to n - 1 do
          (Array.unsafe_get a i) t
        done
  | fns -> fun t -> List.iter (fun f -> f t) fns

(* fast-path statements in order, consecutive float register statements
   with a static read count grouped into one [reg_run]; a statement
   whose count is data-dependent (a [Ternary]) is a run of its own *)
and compile_runs st lookup stmts =
  let out = ref [] and run = ref [] in
  let flush () =
    if !run <> [] then out := reg_run st (List.rev !run) :: !out;
    run := []
  in
  List.iter
    (fun s ->
      let float_reg =
        match s with
        | Decl (_, v, Some e) | Assign (Lvar v, e) -> (
            match lookup v with Float_slot slot -> Some (slot, e) | _ -> None)
        | _ -> None
      in
      match Option.map (fun (slot, e) -> reg_entry st lookup slot e) float_reg with
      | Some (entry, true) -> run := entry :: !run
      | Some (entry, false) ->
          flush ();
          out := reg_run st [ entry ] :: !out
      | None ->
          flush ();
          out := compile_thread_stmt st lookup s :: !out)
    stmts;
  flush ();
  List.rev !out

and compile_thread_stmt st lookup s : int -> unit =
  let stats = st.stats in
  match s with
  | Decl (_, v, None) ->
      ignore (lookup v);
      fun _ -> ()
  | Decl (_, v, Some e) | Assign (Lvar v, e) -> (
      match lookup v with
      | Int_slot slot -> (
          let arr = st.iregs.(slot) in
          (* [v = reg + c] and the affine pass's [v = v + stride] with the
             registers read in place *)
          match (if st.fast then linear_form st lookup e else None) with
          | Some { c; regs = [ (r, 1) ]; bk = 0, 0, 0 } ->
              fun t -> Array.unsafe_set arr t (Array.unsafe_get r t + c)
          | Some { c; regs = [ (r, 1) ]; bk = kx, ky, kz } ->
              fun t ->
                Array.unsafe_set arr t
                  (Array.unsafe_get r t + c + (kx * st.bix) + (ky * st.biy) + (kz * st.biz))
          | Some { c = 0; regs = [ (r, 1); (q, 1) ]; bk = 0, 0, 0 } ->
              fun t -> Array.unsafe_set arr t (Array.unsafe_get r t + Array.unsafe_get q t)
          | _ ->
              let f = compile_int st lookup e in
              if st.fast then fun t -> Array.unsafe_set arr t (f t) else fun t -> arr.(t) <- f t)
      | Float_slot slot when st.fast -> reg_run st [ fst (reg_entry st lookup slot e) ]
      | Float_slot slot ->
          let flops = float_of_int (float_flops lookup e) in
          let arr = st.fregs.(slot) in
          let f = compile_float st lookup e in
          if flops = 0.0 then fun t -> arr.(t) <- f t
          else
            fun t ->
              arr.(t) <- f t;
              stats.flops <- stats.flops +. flops
      | _ -> err st (Printf.sprintf "assignment to non-scalar %s" v))
  | Assign (Lindex (a, idxs), e) -> (
      match lookup a with
      | Global data when st.fast -> (
          let single =
            match idxs with
            | [ i ] -> i
            | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
          in
          let sreads = static_read_count lookup e in
          let rb = match sreads with Some k -> 8 * k | None -> 0 in
          let rhs = acompile_float ~count:(sreads = None) st lookup e in
          let flops = float_of_int (float_flops lookup e) in
          let n = A1.dim data in
          let touched = usage_flag st.write_flags a in
          let oob i =
            err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
          in
          let acc = st.acc and fl = st.flacc in
          let[@inline] store t i =
            if i < 0 || i >= n then oob i
            else begin
              rhs t;
              A1.unsafe_set data i acc.v;
              stats.global_read_bytes <- stats.global_read_bytes + rb;
              stats.global_write_bytes <- stats.global_write_bytes + 8;
              fl.v <- fl.v +. flops;
              touched := true
            end
          in
          match reg_offset st lookup single with
          | Some (r, off) -> fun t -> store t (Array.unsafe_get r t + off)
          | None ->
              let idx = compile_int st lookup single in
              fun t -> store t (idx t))
      | Global data ->
          let single =
            match idxs with
            | [ i ] -> i
            | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
          in
          let rhs = compile_float st lookup e in
          let flops = float_of_int (float_flops lookup e) in
          let n = A1.dim data in
          let touched = usage_flag st.write_flags a in
          let idx = compile_int st lookup single in
          fun t ->
            let i = idx t in
            if i < 0 || i >= n then
              err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
            else begin
              (match !access_trace with Some f -> f ~write:true a i | None -> ());
              A1.unsafe_set data i (rhs t);
              stats.global_write_bytes <- stats.global_write_bytes + 8;
              stats.flops <- stats.flops +. flops;
              touched := true
            end
      | Shared (slot, dims) when st.fast -> (
          let index =
            match tile_index st lookup dims idxs with
            | Some tile -> Either.Left tile
            | None -> Either.Right (shared_addr st dims (List.map (compile_int st lookup) idxs) a)
          in
          let sreads = static_read_count lookup e in
          let rb = 8 * Option.value sreads ~default:0 in
          let rhs = acompile_float ~count:(sreads = None) st lookup e in
          let flops = float_of_int (float_flops lookup e) in
          let acc = st.acc and fl = st.flacc in
          let tile = st.shmem.(slot) and writer = st.sh_writer.(slot)
          and written = st.sh_epoch.(slot) in
          let[@inline] store t i =
            rhs t;
            Array.unsafe_set tile i acc.v;
            Array.unsafe_set writer i t;
            Array.unsafe_set written i st.epoch;
            stats.global_read_bytes <- stats.global_read_bytes + rb;
            fl.v <- fl.v +. flops
          in
          match index with
          | Left (d0, r0, c0, d1, r1, c1) -> fun t -> store t (tile_addr st a d0 r0 c0 d1 r1 c1 t)
          | Right addr -> fun t -> store t (addr t))
      | Shared (slot, dims) ->
          let idx_fns = List.map (compile_int st lookup) idxs in
          let flops = float_of_int (float_flops lookup e) in
          let rhs = compile_float st lookup e in
          fun t ->
            let addr = shared_addr st dims idx_fns a t in
            st.shmem.(slot).(addr) <- rhs t;
            st.sh_writer.(slot).(addr) <- t;
            st.sh_epoch.(slot).(addr) <- st.epoch;
            stats.flops <- stats.flops +. flops
      | _ -> err st (Printf.sprintf "%s is not an array" a))
  | If (c, tb, eb) ->
      let fc = compile_cond st lookup c in
      let ft = compile_thread_fn st lookup tb and fe = compile_thread_fn st lookup eb in
      fun t -> if fc t <> 0 then ft t else fe t
  | For l -> (
      match lookup l.index with
      | Int_slot slot ->
          let flo = compile_int st lookup l.lo and fhi = compile_int st lookup l.hi in
          let arr = st.iregs.(slot) in
          let step = l.step in
          if st.fast && not (stmts_read_var l.index l.body) then begin
            (* the body never reads the loop variable (the affine pass
               replaced every use): keep it in the local ref and publish
               only the final value, which is all later statements can
               observe *)
            (* split the trailing run of induction increments
               (v = v + c, v = v + stride — the shape the affine pass
               appends) off the body and drive them from parallel arrays:
               the hot loop then pays one indirect call per iteration
               instead of one per increment *)
            let inc_of s =
              match s with
              | Assign (Lvar v, Binop (Add, Var v', addend)) when v = v' -> (
                  match lookup v with
                  | Int_slot sl -> (
                      let nthreads = Array.length arr in
                      match addend with
                      | Int_lit c -> Some (st.iregs.(sl), Array.make nthreads c)
                      | Var sv -> (
                          match lookup sv with
                          | Int_slot ss -> Some (st.iregs.(sl), st.iregs.(ss))
                          | Const_int c -> Some (st.iregs.(sl), Array.make nthreads c)
                          | _ -> None)
                      | _ -> None)
                  | _ -> None)
              | _ -> None
            in
            let rec take_incs rev acc =
              match rev with
              | s :: rest -> (
                  match inc_of s with
                  | Some i -> take_incs rest (i :: acc)
                  | None -> (List.rev rev, acc))
              | [] -> ([], acc)
            in
            let prefix, incs = take_incs (List.rev l.body) [] in
            if List.length incs >= 2 then begin
              let body = compile_thread_fn st lookup prefix in
              let tgt = Array.of_list (List.map fst incs) in
              let adds = Array.of_list (List.map snd incs) in
              let k = Array.length tgt in
              fun t ->
                let hi = fhi t in
                let i = ref (flo t) in
                Array.unsafe_set arr t !i;
                while !i < hi do
                  body t;
                  for j = 0 to k - 1 do
                    let a = Array.unsafe_get tgt j in
                    Array.unsafe_set a t
                      (Array.unsafe_get a t
                      + Array.unsafe_get (Array.unsafe_get adds j) t)
                  done;
                  i := !i + step
                done;
                Array.unsafe_set arr t !i
            end
            else
              let body = compile_thread_fn st lookup l.body in
              fun t ->
                let hi = fhi t in
                let i = ref (flo t) in
                Array.unsafe_set arr t !i;
                while !i < hi do
                  body t;
                  i := !i + step
                done;
                Array.unsafe_set arr t !i
          end
          else
            let body = compile_thread_fn st lookup l.body in
            fun t ->
              let hi = fhi t in
              let i = ref (flo t) in
              arr.(t) <- !i;
              while !i < hi do
                body t;
                i := !i + step;
                arr.(t) <- !i
              done
      | _ -> err st (Printf.sprintf "loop index %s is not an int slot" l.index))
  | Return -> fun t -> st.alive.(t) <- false; raise Thread_exit
  | Shared_decl _ -> fun _ -> ()
  | Syncthreads -> err st "internal: __syncthreads inside a per-thread region"

let rec compile_stmt st lookup s : cstmt =
  if not (contains_barrier [ s ]) then
    match s with
    | If (c, tb, eb) when st.fast && pure_int_cond lookup c ->
        GLeaf
          ( compile_cond st lookup c,
            compile_thread_fn st lookup tb,
            compile_thread_fn st lookup eb )
    | _ ->
        let cond =
          match s with If (c, _, _) -> Some (compile_cond st lookup c) | _ -> None
        in
        Leaf { fn = compile_thread_stmt st lookup s; cond }
  else
    match s with
    | Syncthreads -> CSync
    | If (c, tb, eb) ->
        CIf (compile_cond st lookup c, compile_stmts st lookup tb, compile_stmts st lookup eb)
    | For l -> (
        match lookup l.index with
        | Int_slot slot ->
            let arr = st.iregs.(slot) in
            CFor
              {
                set = (fun t v -> arr.(t) <- v);
                get_lo = compile_int st lookup l.lo;
                get_hi = compile_int st lookup l.hi;
                step = l.step;
                body = compile_stmts st lookup l.body;
              }
        | _ -> err st (Printf.sprintf "loop index %s is not an int slot" l.index))
    | _ -> err st "internal: unexpected sync-carrying statement"

and compile_stmts st lookup stmts = List.map (compile_stmt st lookup) stmts

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let record_divergence st cond =
  let stats = st.stats in
  let n = st.nthreads in
  let warp_count = (n + 31) / 32 in
  for w = 0 to warp_count - 1 do
    let ones = ref 0 and zeros = ref 0 in
    for t = w * 32 to min n ((w + 1) * 32) - 1 do
      if st.alive.(t) then if cond t <> 0 then incr ones else incr zeros
    done;
    if !ones + !zeros > 0 then begin
      stats.warp_cond_evals <- stats.warp_cond_evals + 1;
      if !ones > 0 && !zeros > 0 then
        stats.divergent_warp_cond_evals <- stats.divergent_warp_cond_evals + 1
    end
  done

let first_alive st =
  let rec go t = if t >= st.nthreads then None else if st.alive.(t) then Some t else go (t + 1) in
  go 0

let rec exec_lockstep st cstmts = List.iter (exec_cstmt st) cstmts

and exec_cstmt st c =
  match c with
  | CSync -> st.epoch <- st.epoch + 1
  | Leaf { fn; cond } ->
      (match cond with Some f -> record_divergence st f | None -> ());
      if st.has_return then
        for t = 0 to st.nthreads - 1 do
          if st.alive.(t) then try fn t with Thread_exit -> ()
        done
      else
        (* no [return] in the kernel: alive never changes and Thread_exit
           cannot be raised, so run the tight loop *)
        for t = 0 to st.nthreads - 1 do
          fn t
        done
  | GLeaf (cond, ft, fe) ->
      (* one condition evaluation per thread feeds both the warp
         accounting and the branch dispatch; totals match the Leaf path
         (divergence pass then execution) because the condition is pure *)
      let stats = st.stats in
      let n = st.nthreads in
      let warp_count = (n + 31) / 32 in
      for w = 0 to warp_count - 1 do
        let ones = ref 0 and zeros = ref 0 in
        if st.has_return then
          for t = w * 32 to min n ((w + 1) * 32) - 1 do
            if st.alive.(t) then begin
              let c = cond t <> 0 in
              if c then incr ones else incr zeros;
              try if c then ft t else fe t with Thread_exit -> ()
            end
          done
        else
          for t = w * 32 to min n ((w + 1) * 32) - 1 do
            let c = cond t <> 0 in
            if c then incr ones else incr zeros;
            if c then ft t else fe t
          done;
        if !ones + !zeros > 0 then begin
          stats.warp_cond_evals <- stats.warp_cond_evals + 1;
          if !ones > 0 && !zeros > 0 then
            stats.divergent_warp_cond_evals <- stats.divergent_warp_cond_evals + 1
        end
      done
  | CIf (cond, tb, eb) -> (
      match first_alive st with
      | None -> ()
      | Some t0 ->
          let v0 = cond t0 <> 0 in
          for t = 0 to st.nthreads - 1 do
            if st.alive.(t) && cond t <> 0 <> v0 then
              err st "barrier divergence: non-uniform condition guards a __syncthreads region"
          done;
          exec_lockstep st (if v0 then tb else eb))
  | CFor { set; get_lo; get_hi; step; body } -> (
      match first_alive st with
      | None -> ()
      | Some t0 ->
          let lo = get_lo t0 and hi = get_hi t0 in
          for t = 0 to st.nthreads - 1 do
            if st.alive.(t) && (get_lo t <> lo || get_hi t <> hi) then
              err st "barrier divergence: non-uniform loop bounds around a __syncthreads region"
          done;
          let v = ref lo in
          while !v < hi do
            for t = 0 to st.nthreads - 1 do
              if st.alive.(t) then set t !v
            done;
            exec_lockstep st body;
            v := !v + step
          done)

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

let collect_scalar_slots kernel_name body params =
  (* name -> ety, slot index; loop indices and decls *)
  let table : (string, binding) Hashtbl.t = Hashtbl.create 32 in
  let int_slots = ref 0 and float_slots = ref 0 in
  let add_var name ety =
    match Hashtbl.find_opt table name with
    | Some (Int_slot _) when ety = EInt -> ()
    | Some (Float_slot _) when ety = EFloat -> ()
    | Some _ ->
        raise
          (Sim_error
             {
               kernel = kernel_name;
               message = Printf.sprintf "variable %s redeclared with a different type" name;
             })
    | None ->
        let b =
          match ety with
          | EInt ->
              incr int_slots;
              Int_slot (!int_slots - 1)
          | EFloat ->
              incr float_slots;
              Float_slot (!float_slots - 1)
        in
        Hashtbl.replace table name b
  in
  ignore params;
  let shared_slots = ref [] in
  let rec walk stmts =
    List.iter
      (fun s ->
        match s with
        | Decl (Int, v, _) | Decl (Bool, v, _) -> add_var v EInt
        | Decl (Double, v, _) -> add_var v EFloat
        | Shared_decl (_, n, dims) ->
            if not (List.mem_assoc n !shared_slots) then
              shared_slots := !shared_slots @ [ (n, dims) ]
        | For l ->
            add_var l.index EInt;
            walk l.body
        | If (_, t, e) ->
            walk t;
            walk e
        | Assign _ | Syncthreads | Return -> ())
      stmts
  in
  walk body;
  (table, !int_slots, !float_slots, !shared_slots)


(* the flags are keyed by PARAMETER names; translate to host array names *)
let usage_to_host (kernel : kernel) args (read_params, write_params) =
  let binding = bind_args kernel args in
  let host p = match List.assoc_opt p binding with Some (Arg_array h) -> Some h | _ -> None in
  let collect params = List.filter_map host params |> List.sort_uniq compare in
  (collect read_params, collect write_params)

(* ------------------------------------------------------------------ *)
(* Backend selection                                                   *)
(* ------------------------------------------------------------------ *)

type backend = Auto | Interpret | Affine | Vector

(* the path a launch runs on; [Auto] and [Vector] are aliases of
   [Affine] *)
let selected_backend ?(affine = true) ?backend _prog (_ : launch) =
  match backend with
  | Some Interpret -> Interpret
  | Some (Affine | Auto | Vector) -> Affine
  | None -> if affine then Affine else Interpret

let backend_name = function
  | Interpret -> "interp"
  | Affine | Auto | Vector -> "affine"

(* test hook: force a chunk count so the ordered-merge path can be
   exercised deterministically even on a single-core host (where the
   adaptive policy below always picks 1) *)
let chunk_override : int option ref = ref None

(* Each chunk recompiles the kernel against its own register state,
   so chunking only pays off when there are real worker domains and
   enough blocks per chunk to amortize the per-chunk compilation: small
   launches (blocks < ~4 x workers) and single-worker pools stay
   sequential — paying pool coordination with zero usable parallelism is
   exactly the Fluam block-parallel regression. Splitting scales with the
   domains actually spawned, not the requested width. *)
let chunks_for ~jobs ~workers ~blocks =
  match !chunk_override with
  | Some n -> max 1 (min n (max 1 blocks))
  | None ->
      if jobs <= 1 || workers <= 1 || blocks < 4 * workers then 1
      else min (workers * 2) (blocks / 4)

(* per-launch trace record: block/byte totals are pure functions of the
   launch (canonical channel); the chunk split varies with the worker
   count and stays in the side channel *)
let record_launch trace ~affine stats =
  Trace.add trace "blocks" stats.blocks_launched;
  Trace.add trace "threads" stats.threads_launched;
  Trace.add trace "read_bytes" stats.global_read_bytes;
  Trace.add trace "write_bytes" stats.global_write_bytes;
  Trace.set trace "backend" (Trace.Str (if affine then "affine" else "interp"))

(* Blocks are independent in the executed subset (no inter-block sync or
   atomics; kft_verify additionally proves per-thread write disjointness
   for verified kernels), so the grid loop fans out over the engine's
   domain pool in contiguous chunks of the linearized block range. Every
   per-block [stats] delta is recorded, then merged in block-index order
   whatever the chunking, so stats and memory are bit-identical at any
   jobs setting. Kernels with cross-block write overlap are undefined
   behaviour in CUDA itself; for those the sequential path keeps the
   last-writer-in-block-order result while parallel chunks may differ. *)
let launch_ext ?engine ?affine ?backend ?trace mem prog (l : launch) =
  Trace.with_span trace ("launch:" ^ l.l_kernel) @@ fun () ->
  let affine = selected_backend ?affine ?backend prog l = Affine in
  let kernel = find_kernel prog l.l_kernel in
  let bound = bind_args kernel l.l_args in
  let bx, by, bz = l.l_block in
  let gx, gy, gz = grid_of_launch l in
  let nthreads = bx * by * bz in
  if nthreads <= 0 then raise (Sim_error { kernel = l.l_kernel; message = "empty thread block" });
  (* substitute blockDim/gridDim by constants, then strength-reduce the
     affine index expressions, before slot collection and compilation *)
  let body =
    map_exprs_in_stmts
      (function
        | Builtin (Block_dim X) -> Int_lit bx
        | Builtin (Block_dim Y) -> Int_lit by
        | Builtin (Block_dim Z) -> Int_lit bz
        | Builtin (Grid_dim X) -> Int_lit gx
        | Builtin (Grid_dim Y) -> Int_lit gy
        | Builtin (Grid_dim Z) -> Int_lit gz
        | e -> e)
      kernel.k_body
  in
  let body = if affine then Affine.rewrite_stmts body else body in
  let table, n_int, n_float, shared_decls =
    collect_scalar_slots kernel.k_name body kernel.k_params
  in
  (* parameters become constants / array bindings *)
  List.iter
    (fun (p, a) ->
      let b =
        match (p, a) with
        | _, Arg_array host -> (
            match Memory.get mem host with
            | data -> Global data
            | exception Memory.Unknown_array name ->
                raise
                  (Sim_error
                     { kernel = kernel.k_name; message = "unknown device array " ^ name }))
        | _, Arg_int i -> Const_int i
        | _, Arg_double f -> Const_float f
      in
      Hashtbl.replace table p b)
    bound;
  List.iteri
    (fun i (n, dims) -> Hashtbl.replace table n (Shared (i, dims)))
    shared_decls;
  let shared_bytes =
    List.fold_left (fun acc (_, dims) -> acc + (8 * List.fold_left ( * ) 1 dims)) 0 shared_decls
  in
  let blocks = gx * gy * gz in
  let has_return = fold_stmts (fun acc s -> acc || s = Return) false body in
  let txs = Array.init nthreads (fun t -> t mod bx)
  and tys = Array.init nthreads (fun t -> t / bx mod by)
  and tzs = Array.init nthreads (fun t -> t / (bx * by)) in
  let per_block =
    Array.init blocks (fun _ -> zero_stats ~shared_bytes_per_block:shared_bytes ~blocks_launched:1)
  in
  (* Each chunk compiles against its own state (closures capture the
     register files), walks its contiguous block range and returns the
     parameter names it observed reading/writing. [table] and [body] are
     shared read-only. *)
  let run_chunk (b_lo, b_hi) =
    let st =
      {
        kernel_name = kernel.k_name;
        bx; by; bz;
        nthreads;
        txs; tys; tzs;
        zeros = Array.make nthreads 0;
        bix = 0; biy = 0; biz = 0;
        iregs = Array.init n_int (fun _ -> Array.make nthreads 0);
        fregs = Array.init n_float (fun _ -> Array.make nthreads 0.0);
        shmem = Array.of_list (List.map (fun (_, d) -> Array.make (List.fold_left ( * ) 1 d) 0.0) shared_decls);
        sh_writer = Array.of_list (List.map (fun (_, d) -> Array.make (List.fold_left ( * ) 1 d) (-1)) shared_decls);
        sh_epoch = Array.of_list (List.map (fun (_, d) -> Array.make (List.fold_left ( * ) 1 d) (-1)) shared_decls);
        epoch = 0;
        alive = Array.make nthreads true;
        stats = zero_stats ~shared_bytes_per_block:shared_bytes ~blocks_launched:1;
        has_return;
        fast = affine;
        read_flags = Hashtbl.create 8;
        write_flags = Hashtbl.create 8;
        acc = { v = 0.0 };
        flacc = { v = 0.0 };
      }
    in
    let lookup v =
      match Hashtbl.find_opt table v with
      | Some b -> b
      | None -> err st (Printf.sprintf "unbound identifier %s" v)
    in
    let compiled = compile_stmts st lookup body in
    let stats = st.stats in
    for b = b_lo to b_hi do
      let base = copy_stats stats in
      st.bix <- b mod gx;
      st.biy <- b / gx mod gy;
      st.biz <- b / (gx * gy);
      if has_return then Array.fill st.alive 0 nthreads true;
      st.epoch <- 0;
      Array.iter (fun a -> Array.fill a 0 (Array.length a) 0.0) st.shmem;
      Array.iter (fun a -> Array.fill a 0 (Array.length a) (-1)) st.sh_writer;
      Array.iter (fun a -> Array.fill a 0 (Array.length a) (-1)) st.sh_epoch;
      exec_lockstep st compiled;
      Array.iter (fun alive -> if alive then stats.threads_active <- stats.threads_active + 1) st.alive;
      (* fold the fast path's unboxed flop accumulator into the stats
         record once per block — [base] saw the previous block's fold, so
         the delta below is exactly this block's contribution *)
      if st.fast then stats.flops <- st.flacc.v;
      per_block.(b) <- diff_stats stats base
    done;
    let observed tbl = Hashtbl.fold (fun p r acc -> if !r then p :: acc else acc) tbl [] in
    (observed st.read_flags, observed st.write_flags)
  in
  let jobs = match engine with Some e -> Engine.jobs e | None -> 1 in
  let workers = match engine with Some e -> Engine.workers e | None -> 1 in
  (* adaptive serial fallback (see [chunks_for]): launches smaller
     than ~4 blocks per worker, or pools with a single worker domain,
     pay chunked recompilation and pool coordination without usable
     parallelism — those run sequentially *)
  let nchunks = chunks_for ~jobs ~workers ~blocks in
  let ranges =
    List.init nchunks (fun c ->
        (c * blocks / nchunks, ((c + 1) * blocks / nchunks) - 1))
  in
  let usages =
    match engine with
    | Some e when nchunks > 1 -> Engine.map e run_chunk ranges
    | _ -> List.map run_chunk ranges
  in
  (* deterministic merge: block-index order, independent of chunking *)
  let stats = zero_stats ~shared_bytes_per_block:shared_bytes ~blocks_launched:blocks in
  stats.threads_launched <- nthreads * blocks;
  Array.iter
    (fun b ->
      stats.global_read_bytes <- stats.global_read_bytes + b.global_read_bytes;
      stats.global_write_bytes <- stats.global_write_bytes + b.global_write_bytes;
      stats.flops <- stats.flops +. b.flops;
      stats.warp_cond_evals <- stats.warp_cond_evals + b.warp_cond_evals;
      stats.divergent_warp_cond_evals <-
        stats.divergent_warp_cond_evals + b.divergent_warp_cond_evals;
      stats.shared_hazards <- stats.shared_hazards + b.shared_hazards;
      stats.threads_active <- stats.threads_active + b.threads_active)
    per_block;
  let reads = List.concat_map fst usages and writes = List.concat_map snd usages in
  record_launch trace ~affine stats;
  Trace.note trace "chunks" (Trace.Int nchunks);
  (stats, usage_to_host kernel l.l_args (List.sort_uniq compare reads, List.sort_uniq compare writes))

let launch ?engine ?affine ?backend ?trace mem prog l =
  fst (launch_ext ?engine ?affine ?backend ?trace mem prog l)

let launch_with_usage = launch_ext

let record_replay ?affine ?backend ?trace prog (l : launch) stats =
  Trace.with_span trace ("launch:" ^ l.l_kernel) @@ fun () ->
  record_launch trace ~affine:(selected_backend ?affine ?backend prog l = Affine) stats;
  Trace.note trace "replayed" (Trace.Bool true)

let run_schedule ?engine ?affine ?backend ?trace mem prog =
  List.filter_map
    (function
      | Launch l -> Some (l, launch ?engine ?affine ?backend ?trace mem prog l)
      | Copy_to_device _ | Copy_to_host _ -> None)
    prog.p_schedule
