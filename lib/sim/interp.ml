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

(* A set of a block's lanes (thread ids): the first [n] entries of
   [ids]. A lane closure runs over the mask it is given and never
   changes it; a node that narrows the set (an [if], a loop with
   per-lane bounds, a short-circuit) fills a mask of its own. *)
type mask = { ids : int array; mutable n : int }

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
  nthreads : int;
  txs : int array;
  tys : int array;
  tzs : int array;
  zeros : int array;  (* a register that is always 0: constant operands *)
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
  lanes : bool;
      (* compile lane closures (compiled-affine); [false] compiles the
         reference interpreter's per-thread closures *)
  grant : Kft_analysis.Absint.grant;
      (* the order the launch's threads may run in ({!Absint.license}):
         any but [Thread_order] runs each lane statement over all lanes
         at once, [Thread_order] one lane at a time; [Thread_order] on
         the reference path *)
  all : mask;  (* every lane, in thread order *)
  one : mask;  (* a single lane *)
  mutable stmt_runs : int;  (* lane statements run so far in this chunk *)
  stamps : (string, int array) Hashtbl.t;
      (* per global array written inside a loop under [Same_site_order],
         each cell's last writer (see [lane_stmt]) *)
  mutable flop_n : int;
      (* the lane path's flop count, folded into [stats.flops] once per
         block (a [float] store into the mixed [stats] record boxes) *)
  read_flags : (string, bool ref) Hashtbl.t;
  write_flags : (string, bool ref) Hashtbl.t;
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
(* Expression compilation: the reference interpreter                   *)
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

(* a read of tile cell [i] another thread wrote since the last barrier *)
let[@inline] note_hazard st writer written i t =
  if Array.unsafe_get written i = st.epoch then begin
    let w = Array.unsafe_get writer i in
    if w <> t && w >= 0 then st.stats.shared_hazards <- st.stats.shared_hazards + 1
  end

(* [shared_addr]'s per-dimension checks, in its order and with its
   messages, on the index registers read in place *)
let[@inline] tile_addr st name d0 r0 o0 d1 r1 o1 t =
  let i = Array.unsafe_get r0 t + o0 in
  if i < 0 || i >= d0 then shared_oob st name i d0
  else
    let k = Array.unsafe_get r1 t + o1 in
    if k < 0 || k >= d1 then shared_oob st name k d1 else (i * d1) + k

(* Per-thread closures: each returns its value for the thread it is
   given (a float boxed per indirect call, which is fine for the
   reference semantics the lane path is diffed against); every global
   read is individually checked, counted and access-traced. *)
let rec compile_int st lookup e : int -> int =
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
  | Call (f, _) -> err st (Printf.sprintf "call to %s in integer context" f)

(* Div/Mod test the divisor per thread so a division by zero raises
   where it happens *)
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
      let fa = compile_float st lookup a and fb = compile_float st lookup b in
      (* the right operand first, as in an application [cmp (fa t) (fb t)] *)
      fun t ->
        let y = fb t in
        let x = fa t in
        if x < y then lt else if x > y then gt else if x = y then eq else un
  | None, Binop (And, a, b) ->
      let fa = compile_cond st lookup a and fb = compile_cond st lookup b in
      fun t -> if fa t <> 0 && fb t <> 0 then 1 else 0
  | None, Binop (Or, a, b) ->
      let fa = compile_cond st lookup a and fb = compile_cond st lookup b in
      fun t -> if fa t <> 0 || fb t <> 0 then 1 else 0
  | None, Unop (Not, a) ->
      let f = compile_cond st lookup a in
      fun t -> if f t = 0 then 1 else 0
  | None, e -> compile_int st lookup e

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

(* ------------------------------------------------------------------ *)
(* Statement compilation: the reference interpreter                    *)
(* ------------------------------------------------------------------ *)

(* compile a statement list into a single per-thread closure (no syncs
   inside, guaranteed by caller) *)
let rec compile_thread_fn st lookup stmts : int -> unit =
  match List.map (compile_thread_stmt st lookup) stmts with
  | [ f ] -> f
  | fns -> fun t -> List.iter (fun f -> f t) fns

and compile_thread_stmt st lookup s : int -> unit =
  let stats = st.stats in
  match s with
  | Decl (_, v, None) ->
      ignore (lookup v);
      fun _ -> ()
  | Decl (_, v, Some e) | Assign (Lvar v, e) -> (
      match lookup v with
      | Int_slot slot ->
          let arr = st.iregs.(slot) in
          let f = compile_int st lookup e in
          fun t -> arr.(t) <- f t
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

(* ------------------------------------------------------------------ *)
(* Lane compilation: compiled-affine                                   *)
(* ------------------------------------------------------------------ *)

(* A statement compiles to one closure over a mask of lanes, so its
   dispatch is paid once per mask, not once per thread. An expression
   node leaves its value for lane [t] at index [t] of a buffer of its
   own (one per chunk, [nthreads] cells) beside the register files,
   which are already lane arrays; a register or a constant is read in
   place. Children run before their parent, the right operand first as
   in the reference's applications, and a node checks, counts and
   faults over its lanes in lane order: over a single lane this is the
   reference's exact order of evaluation. *)

(* compile-time integer constants: literals, bound scalar parameters and
   non-trapping arithmetic over them (Div/Mod are left to the runtime so
   a division by zero still raises where it happens) *)
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

(* [e] has no effect but its value: no read (a read counts bytes or
   hazards) and no integer division that may fault. Evaluating it on
   lanes that would not is unobservable. *)
let rec pure lookup e =
  match e with
  | Index _ -> false
  | Binop ((Div | Mod), a, b) when ty_of lookup e = EInt ->
      (match static_int lookup b with Some c -> c <> 0 | None -> false) && pure lookup a
  | Binop (_, a, b) -> pure lookup a && pure lookup b
  | Unop (_, a) -> pure lookup a
  | Call (_, args) -> List.for_all (pure lookup) args
  | Ternary (c, a, b) -> pure lookup c && pure lookup a && pure lookup b
  | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> true

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
   static ints *)
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

(* An integer operand: once [ipre] ran over a mask, lane [t] of it is
   [iarr.(t) + ioff]. A float operand: lane [t] is [farr.(t)]; [owned]
   when [farr] is a node's own buffer, which its one parent may reuse
   as its output. *)
type isrc = { ipre : mask -> unit; iarr : int array; ioff : int }
type fsrc = { fpre : mask -> unit; farr : float array; owned : bool }

let nop (_ : mask) = ()

(* the closures in order, no-ops left out *)
let seq fs =
  match List.filter (fun f -> f != nop) fs with
  | [] -> nop
  | [ f ] -> f
  | [ f; g ] ->
      fun m ->
        f m;
        g m
  | fs ->
      let a = Array.of_list fs in
      fun m ->
        for i = 0 to Array.length a - 1 do
          (Array.unsafe_get a i) m
        done

let new_mask st = { ids = Array.make st.nthreads 0; n = 0 }
let ibuf st = Array.make st.nthreads 0
let fconst st f = { fpre = nop; farr = Array.make st.nthreads f; owned = false }
let[@inline] push m t =
  Array.unsafe_set m.ids m.n t;
  m.n <- m.n + 1

(* the lanes of [m] whose condition holds into [tm], the rest into [em] *)
let split (c : isrc) m tm em =
  let ca = c.iarr and co = c.ioff and ids = m.ids in
  tm.n <- 0;
  em.n <- 0;
  for k = 0 to m.n - 1 do
    let t = Array.unsafe_get ids k in
    if Array.unsafe_get ca t + co <> 0 then push tm t else push em t
  done

(* a linear form: one register plus a constant is read in place; any
   other is one loop, its blockIdx part folded into the constant once
   per call *)
let lane_linear st ?dst { c; regs; bk = kx, ky, kz } : isrc =
  match (regs, kx, ky, kz) with
  | [], 0, 0, 0 -> { ipre = nop; iarr = st.zeros; ioff = c }
  | [ (a, 1) ], 0, 0, 0 -> { ipre = nop; iarr = a; ioff = c }
  | _ ->
      let out = match dst with Some d -> d | None -> ibuf st in
      let base () = c + (kx * st.bix) + (ky * st.biy) + (kz * st.biz) in
      let run =
        match regs with
        | [] ->
            fun m ->
              let u = base () in
              for k = 0 to m.n - 1 do
                Array.unsafe_set out (Array.unsafe_get m.ids k) u
              done
        | [ (a, ka) ] ->
            fun m ->
              let u = base () and ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t ((ka * Array.unsafe_get a t) + u)
              done
        | [ (a, ka); (b, kb) ] ->
            fun m ->
              let u = base () and ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t ((ka * Array.unsafe_get a t) + (kb * Array.unsafe_get b t) + u)
              done
        | [ (a, ka); (b, kb); (c, kc) ] ->
            fun m ->
              let u = base () and ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t
                  ((ka * Array.unsafe_get a t) + (kb * Array.unsafe_get b t)
                  + (kc * Array.unsafe_get c t) + u)
              done
        | _ ->
            let ra = Array.of_list (List.map fst regs) and ks = Array.of_list (List.map snd regs) in
            fun m ->
              let u = base () and ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                let s = ref u in
                for i = 0 to Array.length ra - 1 do
                  s := !s + (Array.unsafe_get ks i * Array.unsafe_get (Array.unsafe_get ra i) t)
                done;
                Array.unsafe_set out t !s
              done
      in
      { ipre = run; iarr = out; ioff = 0 }

(* [x && y] or [x || y] as 0/1. [y] runs only on the lanes [x] does not
   decide, unless it is [pure]. *)
let lane_logic st op ~pure (x : isrc) (y : isrc) : isrc =
  let out = ibuf st and sub = new_mask st in
  let xa = x.iarr and xo = x.ioff and ya = y.iarr and yo = y.ioff in
  let go_on = op = And and decided = if op = And then 0 else 1 in
  let run m =
    let ids = m.ids in
    if pure then y.ipre m;
    sub.n <- 0;
    for k = 0 to m.n - 1 do
      let t = Array.unsafe_get ids k in
      if Array.unsafe_get xa t + xo <> 0 = go_on then push sub t
      else Array.unsafe_set out t decided
    done;
    if sub.n > 0 then begin
      if not pure then y.ipre sub;
      for k = 0 to sub.n - 1 do
        let t = Array.unsafe_get sub.ids k in
        Array.unsafe_set out t (if Array.unsafe_get ya t + yo <> 0 then 1 else 0)
      done
    end
  in
  { ipre = seq [ x.ipre; run ]; iarr = out; ioff = 0 }

(* a ternary: [x] on the lanes where [c] holds, [y] on the others *)
let select_pre (c : isrc) tm em ~copy_x ~copy_y (xpre : mask -> unit) (ypre : mask -> unit) =
  seq
    [
      c.ipre;
      (fun m ->
        split c m tm em;
        if tm.n > 0 then begin
          xpre tm;
          copy_x tm
        end;
        if em.n > 0 then begin
          ypre em;
          copy_y em
        end);
    ]

(* A guard box as three ranges [lo <= reg.(t) + off <= hi], fewer padded
   with one that always holds *)
type box = {
  r0 : int array; o0 : int; l0 : int; h0 : int;
  r1 : int array; o1 : int; l1 : int; h1 : int;
  r2 : int array; o2 : int; l2 : int; h2 : int;
}

let[@inline] inside b t =
  let v0 = Array.unsafe_get b.r0 t + b.o0
  and v1 = Array.unsafe_get b.r1 t + b.o1
  and v2 = Array.unsafe_get b.r2 t + b.o2 in
  b.l0 <= v0 && v0 <= b.h0 && b.l1 <= v1 && v1 <= b.h1 && b.l2 <= v2 && v2 <= b.h2

let rec lane_int st lookup ?dst e : isrc =
  match linear_form st lookup e with
  | Some l -> lane_linear st ?dst l
  | None -> (
      let node run = { ipre = run; iarr = (match dst with Some d -> d | None -> ibuf st); ioff = 0 } in
      match e with
      | Int_lit i -> { ipre = nop; iarr = st.zeros; ioff = i }
      | Builtin _ -> err st "blockDim/gridDim must be compiled to constants"
      | Var v -> (
          match lookup v with
          | Const_float _ | Float_slot _ ->
              err st (Printf.sprintf "variable %s used as integer but is double" v)
          | _ -> err st (Printf.sprintf "array %s used as scalar" v))
      | Binop (op, a, b) -> lane_int_binop st lookup ?dst op a b
      | Unop (op, a) ->
          let x = lane_int st lookup a in
          let xa = x.iarr and xo = x.ioff in
          let r = node nop in
          let out = r.iarr in
          let run m =
            let ids = m.ids in
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get ids k in
              let v = Array.unsafe_get xa t + xo in
              Array.unsafe_set out t (if op = Neg then -v else if v = 0 then 1 else 0)
            done
          in
          { r with ipre = seq [ x.ipre; run ] }
      | Call ((("min" | "max") as f), [ a; b ]) ->
          let x = lane_int st lookup a and y = lane_int st lookup b in
          let xa = x.iarr and xo = x.ioff and ya = y.iarr and yo = y.ioff in
          let r = node nop in
          let out = r.iarr and is_min = f = "min" in
          let run m =
            let ids = m.ids in
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get ids k in
              let u = Array.unsafe_get xa t + xo and v = Array.unsafe_get ya t + yo in
              Array.unsafe_set out t (if is_min then min u v else max u v)
            done
          in
          { r with ipre = seq [ y.ipre; x.ipre; run ] }
      | Call ("abs", [ a ]) ->
          let x = lane_int st lookup a in
          let xa = x.iarr and xo = x.ioff in
          let r = node nop in
          let out = r.iarr in
          let run m =
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get m.ids k in
              Array.unsafe_set out t (abs (Array.unsafe_get xa t + xo))
            done
          in
          { r with ipre = seq [ x.ipre; run ] }
      | Ternary (c, a, b) ->
          let c = lane_int st lookup c and x = lane_int st lookup a and y = lane_int st lookup b in
          let out = ibuf st in
          let copy (s : isrc) m =
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get m.ids k in
              Array.unsafe_set out t (Array.unsafe_get s.iarr t + s.ioff)
            done
          in
          let pre =
            select_pre c (new_mask st) (new_mask st) ~copy_x:(copy x) ~copy_y:(copy y) x.ipre y.ipre
          in
          { ipre = pre; iarr = out; ioff = 0 }
      | Double_lit _ -> err st "double literal in integer context"
      | Index (a, _) -> err st (Printf.sprintf "array %s read in integer context" a)
      | Call (f, _) -> err st (Printf.sprintf "call to %s in integer context" f))

and lane_int_binop st lookup ?dst op a b : isrc =
  let out () = match dst with Some d -> d | None -> ibuf st in
  match op with
  | And | Or -> lane_logic st op ~pure:(pure lookup b) (lane_int st lookup a) (lane_int st lookup b)
  | Div | Mod -> (
      let x = lane_int st lookup a in
      let xa = x.iarr and xo = x.ioff and out = out () in
      let div = op = Div in
      match static_int lookup b with
      | Some c when c <> 0 ->
          let run m =
            let ids = m.ids in
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get ids k in
              let v = Array.unsafe_get xa t + xo in
              Array.unsafe_set out t (if div then v / c else v mod c)
            done
          in
          { ipre = seq [ x.ipre; run ]; iarr = out; ioff = 0 }
      | _ ->
          (* the divisor first, tested before the dividend runs *)
          let y = lane_int st lookup b in
          let ya = y.iarr and yo = y.ioff in
          let test m =
            for k = 0 to m.n - 1 do
              if Array.unsafe_get ya (Array.unsafe_get m.ids k) + yo = 0 then
                err st (if div then "integer division by zero" else "integer modulo by zero")
            done
          in
          let run m =
            let ids = m.ids in
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get ids k in
              let u = Array.unsafe_get xa t + xo and v = Array.unsafe_get ya t + yo in
              Array.unsafe_set out t (if div then u / v else u mod v)
            done
          in
          { ipre = seq [ y.ipre; test; x.ipre; run ]; iarr = out; ioff = 0 })
  | Add | Sub | Mul | Lt | Le | Gt | Ge | Eq | Ne ->
      let x = lane_int st lookup a and y = lane_int st lookup b in
      let xa = x.iarr and xo = x.ioff and ya = y.iarr and yo = y.ioff and out = out () in
      let loop f = seq [ y.ipre; x.ipre; f ] in
      (match (op, cmp_outcomes op) with
      | _, Some (lt, eq, gt, _) ->
          let run m =
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get m.ids k in
              let u = Array.unsafe_get xa t + xo and v = Array.unsafe_get ya t + yo in
              Array.unsafe_set out t (if u < v then lt else if u > v then gt else eq)
            done
          in
          { ipre = loop run; iarr = out; ioff = 0 }
      | Mul, _ ->
          let run m =
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get m.ids k in
              Array.unsafe_set out t ((Array.unsafe_get xa t + xo) * (Array.unsafe_get ya t + yo))
            done
          in
          { ipre = loop run; iarr = out; ioff = 0 }
      | _ ->
          (* [+]/[-] keep the constants in the offset *)
          let sub = op = Sub in
          let run m =
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get m.ids k in
              let u = Array.unsafe_get xa t and v = Array.unsafe_get ya t in
              Array.unsafe_set out t (if sub then u - v else u + v)
            done
          in
          { ipre = loop run; iarr = out; ioff = (if sub then xo - yo else xo + yo) })

(* Comparison/logic over possibly-float operands, 0/1 per lane. *)
and lane_cond st lookup e : isrc =
  match e with
  | Binop (op, a, b)
    when join (ty_of lookup a) (ty_of lookup b) = EFloat && cmp_outcomes op <> None ->
      let lt, eq, gt, un = Option.get (cmp_outcomes op) in
      let x = lane_float st lookup a and y = lane_float st lookup b in
      let xa = x.farr and ya = y.farr and out = ibuf st in
      let run m =
        let ids = m.ids in
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get ids k in
          let u = Array.unsafe_get xa t and v = Array.unsafe_get ya t in
          Array.unsafe_set out t (if u < v then lt else if u > v then gt else if u = v then eq else un)
        done
      in
      { ipre = seq [ y.fpre; x.fpre; run ]; iarr = out; ioff = 0 }
  | Binop (And, _, _) when Option.is_some (lane_box st lookup e) ->
      (* a guard box in one loop *)
      let b = Option.get (lane_box st lookup e) and out = ibuf st in
      let run m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t (if inside b t then 1 else 0)
        done
      in
      { ipre = run; iarr = out; ioff = 0 }
  | Binop (((And | Or) as op), a, b) ->
      lane_logic st op ~pure:(pure lookup b) (lane_cond st lookup a) (lane_cond st lookup b)
  | Unop (Not, a) ->
      let x = lane_cond st lookup a in
      let xa = x.iarr and xo = x.ioff and out = ibuf st in
      let run m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t (if Array.unsafe_get xa t + xo = 0 then 1 else 0)
        done
      in
      { ipre = seq [ x.ipre; run ]; iarr = out; ioff = 0 }
  | e -> lane_int st lookup e

(* [lane_ranges] as a box, when there are at most three *)
and lane_box st lookup e =
  let any = (st.zeros, 0, min_int, max_int) in
  match Option.map (fun rs -> rs @ [ any; any ]) (lane_ranges st lookup e) with
  | Some [ (r0, o0, l0, h0); (r1, o1, l1, h1); (r2, o2, l2, h2) ]
  | Some [ (r0, o0, l0, h0); (r1, o1, l1, h1); (r2, o2, l2, h2); _ ]
  | Some [ (r0, o0, l0, h0); (r1, o1, l1, h1); (r2, o2, l2, h2); _; _ ] ->
      Some { r0; o0; l0; h0; r1; o1; l1; h1; r2; o2; l2; h2 }
  | _ -> None

(* [e] as ranges [lo <= reg + off <= hi] that all hold exactly when [e]
   does: an [&&] chain of compares, other than [!=], of a register plus
   a constant against a compile-time constant. The compares are pure, so
   ranges on one register and offset intersect and their order does not
   matter; an empty range is [(1, 0)]. *)
and lane_ranges st lookup e =
  match e with
  | Binop (And, a, b) -> (
      match (lane_ranges st lookup a, lane_ranges st lookup b) with
      | Some p, Some q ->
          let meet acc (r, off, lo, hi) =
            match List.partition (fun (q, o, _, _) -> q == r && o = off) acc with
            | [ (_, _, lo', hi') ], rest -> (r, off, max lo lo', min hi hi') :: rest
            | _ -> (r, off, lo, hi) :: acc
          in
          Some (List.fold_left meet p q)
      | _ -> None)
  | Binop (op, a, b) -> (
      let leaf e =
        match linear_form st lookup e with
        | Some { c; regs = [ (r, 1) ]; bk = 0, 0, 0 } -> Some (r, c)
        | _ -> None
      in
      let mirror = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op in
      let cmp =
        match (leaf a, static_int lookup b, static_int lookup a, leaf b) with
        | Some (r, off), Some c, _, _ -> Some (op, r, off, c)
        | _, _, Some c, Some (r, off) -> Some (mirror op, r, off, c)
        | _ -> None
      in
      match cmp with
      | Some (Lt, r, off, c) -> Some [ (if c = min_int then (r, off, 1, 0) else (r, off, min_int, c - 1)) ]
      | Some (Le, r, off, c) -> Some [ (r, off, min_int, c) ]
      | Some (Gt, r, off, c) -> Some [ (if c = max_int then (r, off, 1, 0) else (r, off, c + 1, max_int)) ]
      | Some (Ge, r, off, c) -> Some [ (r, off, c, max_int) ]
      | Some (Eq, r, off, c) -> Some [ (r, off, c, c) ]
      | _ -> None)
  | _ -> None

and lane_float st lookup ?dst e : fsrc =
  let out () = match dst with Some d -> d | None -> Array.make st.nthreads 0.0 in
  (* [dst] is a register: no parent may take it over *)
  let node fpre farr = { fpre; farr; owned = dst = None } in
  match (ty_of lookup e, e) with
  | EInt, _ | _, (Int_lit _ | Builtin _ | Unop (Not, _)) ->
      let x = lane_int st lookup e in
      let xa = x.iarr and xo = x.ioff and out = out () in
      let run m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t (float_of_int (Array.unsafe_get xa t + xo))
        done
      in
      node (seq [ x.ipre; run ]) out
  | EFloat, Double_lit f -> fconst st f
  | EFloat, Var v -> (
      match lookup v with
      | Const_float f -> fconst st f
      | Float_slot s -> { fpre = nop; farr = st.fregs.(s); owned = false }
      | _ -> err st (Printf.sprintf "array %s used as scalar" v))
  | EFloat, Index (a, idxs) -> (
      let out = out () in
      match lookup a with
      | Global data ->
          let x =
            match idxs with
            | [ i ] -> lane_int st lookup i
            | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
          in
          let xa = x.iarr and xo = x.ioff in
          let n = A1.dim data and stats = st.stats and touched = usage_flag st.read_flags a in
          let run m =
            let ids = m.ids in
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get ids k in
              let i = Array.unsafe_get xa t + xo in
              if i < 0 || i >= n then
                err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n);
              Array.unsafe_set out t (A1.unsafe_get data i)
            done;
            if m.n > 0 then begin
              stats.global_read_bytes <- stats.global_read_bytes + (8 * m.n);
              touched := true
            end
          in
          node (seq [ x.ipre; run ]) out
      | Shared (slot, dims) -> (
          let tile = st.shmem.(slot) and writer = st.sh_writer.(slot)
          and written = st.sh_epoch.(slot) in
          match lane_tile st lookup a dims idxs with
          | Either.Left (d0, r0, o0, d1, r1, o1) ->
              let run m =
                let ids = m.ids in
                for k = 0 to m.n - 1 do
                  let t = Array.unsafe_get ids k in
                  let i = tile_addr st a d0 r0 o0 d1 r1 o1 t in
                  note_hazard st writer written i t;
                  Array.unsafe_set out t (Array.unsafe_get tile i)
                done
              in
              node run out
          | Either.Right addr ->
              let xa = addr.iarr in
              let run m =
                let ids = m.ids in
                for k = 0 to m.n - 1 do
                  let t = Array.unsafe_get ids k in
                  let i = Array.unsafe_get xa t in
                  note_hazard st writer written i t;
                  Array.unsafe_set out t (Array.unsafe_get tile i)
                done
              in
              node (seq [ addr.ipre; run ]) out)
      | _ -> err st (Printf.sprintf "%s indexed but is not an array" a))
  | EFloat, Binop (Add, Binop (Mul, a, b), c) when ty_of lookup (Binop (Mul, a, b)) = EFloat ->
      (* [a * b + c] in one loop, rounded after each operation *)
      let z = lane_float st lookup c in
      let y = lane_float st lookup b in
      let x = lane_float st lookup a in
      let xa = x.farr and ya = y.farr and za = z.farr in
      let out = out () in
      let run m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t ((Array.unsafe_get xa t *. Array.unsafe_get ya t) +. Array.unsafe_get za t)
        done
      in
      node (seq [ z.fpre; y.fpre; x.fpre; run ]) out
  | EFloat, Binop (op, a, b) ->
      let x = lane_float st lookup a and y = lane_float st lookup b in
      let xa = x.farr and ya = y.farr in
      let out =
        match dst with
        | Some d -> d
        | None -> if x.owned then xa else if y.owned then ya else out ()
      in
      let run =
        match op with
        | Add ->
            fun m ->
              let ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t (Array.unsafe_get xa t +. Array.unsafe_get ya t)
              done
        | Sub ->
            fun m ->
              let ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t (Array.unsafe_get xa t -. Array.unsafe_get ya t)
              done
        | Mul ->
            fun m ->
              let ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t (Array.unsafe_get xa t *. Array.unsafe_get ya t)
              done
        | Div ->
            fun m ->
              let ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t (Array.unsafe_get xa t /. Array.unsafe_get ya t)
              done
        | _ ->
            fun m ->
              let ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                Array.unsafe_set out t (Float.rem (Array.unsafe_get xa t) (Array.unsafe_get ya t))
              done
      in
      node (seq [ y.fpre; x.fpre; run ]) out
  | EFloat, Unop (Neg, a) ->
      let x = lane_float st lookup a in
      let xa = x.farr in
      let out = match dst with None when x.owned -> xa | _ -> out () in
      let run m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t (-.Array.unsafe_get xa t)
        done
      in
      node (seq [ x.fpre; run ]) out
  | EFloat, Ternary (c, a, b) ->
      let c = lane_cond st lookup c and x = lane_float st lookup a and y = lane_float st lookup b in
      let out = out () in
      let copy (s : fsrc) m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t (Array.unsafe_get s.farr t)
        done
      in
      let pre =
        select_pre c (new_mask st) (new_mask st) ~copy_x:(copy x) ~copy_y:(copy y) x.fpre y.fpre
      in
      node pre out
  | EFloat, Call (fname, args) ->
      let xs = List.map (lane_float st lookup) args in
      let pre = List.rev_map (fun x -> x.fpre) xs in
      let out =
        match (dst, xs) with None, { owned = true; farr; _ } :: _ -> farr | _ -> out ()
      in
      (* one closure call per lane: no bundled program calls a math
         function *)
      let per_lane f m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t (f t)
        done
      in
      let run =
        match (fname, List.map (fun x -> x.farr) xs) with
        | "sqrt", [ a ] -> per_lane (fun t -> sqrt a.(t))
        | ("fabs" | "abs"), [ a ] -> per_lane (fun t -> Float.abs a.(t))
        | "exp", [ a ] -> per_lane (fun t -> exp a.(t))
        | "log", [ a ] -> per_lane (fun t -> log a.(t))
        | "sin", [ a ] -> per_lane (fun t -> sin a.(t))
        | "cos", [ a ] -> per_lane (fun t -> cos a.(t))
        | "pow", [ a; b ] -> per_lane (fun t -> Float.pow a.(t) b.(t))
        | ("min" | "fmin"), [ a; b ] -> per_lane (fun t -> Float.min a.(t) b.(t))
        | ("max" | "fmax"), [ a; b ] -> per_lane (fun t -> Float.max a.(t) b.(t))
        | "fma", [ a; b; c ] -> per_lane (fun t -> Float.fma a.(t) b.(t) c.(t))
        | _ -> err st (Printf.sprintf "unsupported function %s/%d" fname (List.length args))
      in
      node (seq (pre @ [ run ])) out

(* A shared-array address per lane: a 1-D or 2-D tile indexed by
   registers plus constants is [(d0, r0, o0, d1, r1, o1)], read in place
   by [tile_addr] (a 1-D tile is a 2-D one of leading dimension 1
   indexed by 0); any other address is computed into a buffer, each
   dimension's index run and checked in turn. Both check with
   [shared_addr]'s messages, in its order. *)
and lane_tile st lookup name dims idxs =
  let xs = List.map (lane_int st lookup) idxs in
  let leaf (x : isrc) = x.ipre == nop in
  match (dims, xs) with
  | [ d1 ], [ x1 ] when leaf x1 -> Either.Left (1, st.zeros, 0, d1, x1.iarr, x1.ioff)
  | [ d0; d1 ], [ x0; x1 ] when leaf x0 && leaf x1 ->
      Either.Left (d0, x0.iarr, x0.ioff, d1, x1.iarr, x1.ioff)
  | _ ->
      let out = ibuf st in
      if List.compare_lengths dims xs <> 0 then
        let run m =
          if m.n > 0 then err st (Printf.sprintf "shared array %s: wrong number of indices" name)
        in
        Either.Right { ipre = seq (List.map (fun x -> x.ipre) xs @ [ run ]); iarr = out; ioff = 0 }
      else
        let pass first d (x : isrc) =
          let xa = x.iarr and xo = x.ioff in
          let run m =
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get m.ids k in
              let i = Array.unsafe_get xa t + xo in
              if i < 0 || i >= d then shared_oob st name i d;
              Array.unsafe_set out t (if first then i else (Array.unsafe_get out t * d) + i)
            done
          in
          [ x.ipre; run ]
        in
        let passes =
          List.concat (List.mapi (fun j (d, x) -> pass (j = 0) d x) (List.combine dims xs))
        in
        Either.Right { ipre = seq passes; iarr = out; ioff = 0 }

(* [lane_tile] as a buffer of addresses *)
and lane_shared_addr st lookup name dims idxs : isrc =
  match lane_tile st lookup name dims idxs with
  | Either.Right addr -> addr
  | Either.Left (d0, r0, o0, d1, r1, o1) ->
      let out = ibuf st in
      let run m =
        for k = 0 to m.n - 1 do
          let t = Array.unsafe_get m.ids k in
          Array.unsafe_set out t (tile_addr st name d0 r0 o0 d1 r1 o1 t)
        done
      in
      { ipre = run; iarr = out; ioff = 0 }

(* ------------------------------------------------------------------ *)
(* Statement compilation: lanes                                        *)
(* ------------------------------------------------------------------ *)

let stamps st a n =
  match Hashtbl.find_opt st.stamps a with
  | Some s -> s
  | None ->
      let s = Array.make n (-1) in
      Hashtbl.replace st.stamps a s;
      s

(* [looped]: the statement runs inside a loop of the lane statement
   being compiled *)
let rec lane_block ?looped st lookup stmts = seq (List.map (lane_stmt ?looped st lookup) stmts)

(* an [if] as its condition and the dispatch that runs each branch on
   the lanes the condition sends there, once the condition ran *)
and lane_if ?looped st lookup c tb eb =
  let box = match c with Binop (And, _, _) -> lane_box st lookup c | _ -> None in
  let c = lane_cond st lookup c in
  let tb = lane_block ?looped st lookup tb and eb = lane_block ?looped st lookup eb in
  let tm = new_mask st and em = new_mask st in
  let branches () =
    if tm.n > 0 then tb tm;
    if em.n > 0 then eb em
  in
  let dispatch m =
    split c m tm em;
    branches ()
  in
  (* a guard box decides and splits the lanes in one loop *)
  let run =
    match box with
    | Some b ->
        fun m ->
          tm.n <- 0;
          em.n <- 0;
          for k = 0 to m.n - 1 do
            let t = Array.unsafe_get m.ids k in
            if inside b t then push tm t else if eb != nop then push em t
          done;
          branches ()
    | None -> seq [ c.ipre; dispatch ]
  in
  (c, dispatch, run)

and lane_stmt ?(looped = false) st lookup s : mask -> unit =
  let stats = st.stats in
  let count e =
    let flops = float_flops lookup e in
    if flops = 0 then nop else fun m -> st.flop_n <- st.flop_n + (flops * m.n)
  in
  match s with
  | Decl (_, v, None) ->
      ignore (lookup v);
      nop
  | Decl (_, v, Some e) | Assign (Lvar v, e) -> (
      match lookup v with
      | Int_slot slot ->
          let dst = st.iregs.(slot) in
          let x = lane_int st lookup ~dst e in
          let xa = x.iarr and xo = x.ioff in
          if xa == dst && xo = 0 then x.ipre
          else
            seq
              [
                x.ipre;
                (fun m ->
                  for k = 0 to m.n - 1 do
                    let t = Array.unsafe_get m.ids k in
                    Array.unsafe_set dst t (Array.unsafe_get xa t + xo)
                  done);
              ]
      | Float_slot slot ->
          let dst = st.fregs.(slot) in
          let x = lane_float st lookup ~dst e in
          let xa = x.farr in
          let copy m =
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get m.ids k in
              Array.unsafe_set dst t (Array.unsafe_get xa t)
            done
          in
          seq [ x.fpre; (if xa == dst then nop else copy); count e ]
      | _ -> err st (Printf.sprintf "assignment to non-scalar %s" v))
  | Assign (Lindex (a, idxs), e) -> (
      match lookup a with
      | Global data ->
          let single =
            match idxs with
            | [ i ] -> i
            | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
          in
          let y = lane_float st lookup e in
          let x = lane_int st lookup single in
          let xa = x.iarr and xo = x.ioff and ya = y.farr in
          let n = A1.dim data and touched = usage_flag st.write_flags a in
          (* the index is checked before the right-hand side runs *)
          let check m =
            for k = 0 to m.n - 1 do
              let i = Array.unsafe_get xa (Array.unsafe_get m.ids k) + xo in
              if i < 0 || i >= n then
                err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
            done
          in
          let written m =
            if m.n > 0 then begin
              stats.global_write_bytes <- stats.global_write_bytes + (8 * m.n);
              touched := true
            end
          in
          let store =
            if looped && st.grant = Same_site_order then begin
              (* A write the race proof exempted as same-site may hit one
                 cell from several threads, and over all lanes a loop
                 runs them iteration by iteration, not thread by thread.
                 Only this write touches such a cell, so the reference's
                 final value is that of the highest thread's last hit. A
                 cell's stamp is [run * nthreads + t] for its last writer
                 [t] in statement run [run], so a hit from a lower thread
                 in the same run is the one that finds a larger stamp,
                 and is dropped. A cell that one thread alone writes,
                 through any writes of this array, keeps program order. *)
              let stamp = stamps st a n in
              fun m ->
                let ids = m.ids and base = st.stmt_runs * st.nthreads in
                for k = 0 to m.n - 1 do
                  let t = Array.unsafe_get ids k in
                  let i = Array.unsafe_get xa t + xo in
                  if Array.unsafe_get stamp i <= base + t then begin
                    A1.unsafe_set data i (Array.unsafe_get ya t);
                    Array.unsafe_set stamp i (base + t)
                  end
                done;
                written m
            end
            else fun m ->
              let ids = m.ids in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                A1.unsafe_set data (Array.unsafe_get xa t + xo) (Array.unsafe_get ya t)
              done;
              written m
          in
          seq [ x.ipre; check; y.fpre; store; count e ]
      | Shared (slot, dims) ->
          let addr = lane_shared_addr st lookup a dims idxs in
          let y = lane_float st lookup e in
          let xa = addr.iarr and ya = y.farr in
          let tile = st.shmem.(slot) and writer = st.sh_writer.(slot)
          and written = st.sh_epoch.(slot) in
          let store m =
            let ids = m.ids and epoch = st.epoch in
            for k = 0 to m.n - 1 do
              let t = Array.unsafe_get ids k in
              let i = Array.unsafe_get xa t in
              Array.unsafe_set tile i (Array.unsafe_get ya t);
              Array.unsafe_set writer i t;
              Array.unsafe_set written i epoch
            done
          in
          seq [ addr.ipre; y.fpre; store; count e ]
      | _ -> err st (Printf.sprintf "%s is not an array" a))
  | If (c, tb, eb) ->
      let _, _, run = lane_if ~looped st lookup c tb eb in
      run
  | For l -> (
      match lookup l.index with
      | Int_slot slot ->
          let lo = lane_int st lookup l.lo and hi = lane_int st lookup l.hi in
          let body = lane_block ~looped:true st lookup l.body in
          let idx = st.iregs.(slot) and step = l.step in
          let iv = ibuf st and hv = ibuf st and sub = new_mask st in
          let la = lo.iarr and lo_off = lo.ioff and ha = hi.iarr and ho = hi.ioff in
          fun m ->
            (* the bound first, as the reference reads it *)
            hi.ipre m;
            lo.ipre m;
            if m.n > 0 then begin
              let ids = m.ids in
              let t0 = Array.unsafe_get ids 0 in
              let v0 = Array.unsafe_get la t0 + lo_off and h0 = Array.unsafe_get ha t0 + ho in
              let uniform = ref true in
              for k = 0 to m.n - 1 do
                let t = Array.unsafe_get ids k in
                let v = Array.unsafe_get la t + lo_off and h = Array.unsafe_get ha t + ho in
                Array.unsafe_set iv t v;
                Array.unsafe_set hv t h;
                Array.unsafe_set idx t v;
                if v <> v0 || h <> h0 then uniform := false
              done;
              if !uniform then begin
                let v = ref v0 in
                while !v < h0 do
                  body m;
                  v := !v + step;
                  for k = 0 to m.n - 1 do
                    Array.unsafe_set idx (Array.unsafe_get ids k) !v
                  done
                done
              end
              else begin
                (* per-lane bounds: iterate until no lane is left *)
                sub.n <- 0;
                for k = 0 to m.n - 1 do
                  let t = Array.unsafe_get ids k in
                  if Array.unsafe_get iv t < Array.unsafe_get hv t then push sub t
                done;
                while sub.n > 0 do
                  body sub;
                  let left = sub.n in
                  sub.n <- 0;
                  for k = 0 to left - 1 do
                    let t = Array.unsafe_get sub.ids k in
                    let v = Array.unsafe_get iv t + step in
                    Array.unsafe_set iv t v;
                    Array.unsafe_set idx t v;
                    if v < Array.unsafe_get hv t then push sub t
                  done
                done
              end
            end
      | _ -> err st (Printf.sprintf "loop index %s is not an int slot" l.index))
  | Return ->
      fun m ->
        for k = 0 to m.n - 1 do
          st.alive.(m.ids.(k)) <- false
        done;
        if m.n > 0 then raise Thread_exit
  | Shared_decl _ -> nop
  | Syncthreads -> err st "internal: __syncthreads inside a per-thread region"

(* ------------------------------------------------------------------ *)
(* The lockstep skeleton                                               *)
(* ------------------------------------------------------------------ *)

type cstmt =
  | Leaf of { fn : int -> unit; cond : (int -> int) option }
      (* reference: a sync-free statement, one thread at a time; [cond]
         is an [if]'s condition for the warp-divergence count *)
  | Lanes of { run : mask -> unit; guard : (isrc * (mask -> unit)) option }
      (* a sync-free statement over lanes; [guard] is an [if]'s
         condition and dispatch ([run] is the two in sequence) *)
  | CIf of (int -> int) * cstmt list * cstmt list
  | CFor of {
      idx : int array;  (* the loop index's register *)
      get_lo : int -> int;
      get_hi : int -> int;
      step : int;
      body : cstmt list;
    }
  | CSync

let rec compile_stmt st lookup s : cstmt =
  if not (contains_barrier [ s ]) then
    match s with
    | If (c, tb, eb) when st.lanes ->
        let c, dispatch, run = lane_if st lookup c tb eb in
        Lanes { run; guard = Some (c, dispatch) }
    | _ when st.lanes -> Lanes { run = lane_stmt st lookup s; guard = None }
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
            CFor
              {
                idx = st.iregs.(slot);
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

(* [f] over each live lane alone, in thread order *)
let each_lane st f =
  let one = st.one in
  for t = 0 to st.nthreads - 1 do
    if st.alive.(t) then begin
      Array.unsafe_set one.ids 0 t;
      try f one with Thread_exit -> ()
    end
  done

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
  | Lanes { run; guard = None } ->
      st.stmt_runs <- st.stmt_runs + 1;
      if st.grant <> Thread_order then run st.all else each_lane st run
  | Lanes { run; guard = Some (c, dispatch) } ->
      st.stmt_runs <- st.stmt_runs + 1;
      (* the reference evaluates an [if]'s condition over every thread
         for the warp count, then once more per thread as it runs it *)
      let ca = c.iarr and co = c.ioff in
      if st.grant <> Thread_order then begin
        let stats = st.stats in
        let r0 = stats.global_read_bytes in
        c.ipre st.all;
        stats.global_read_bytes <- stats.global_read_bytes + (stats.global_read_bytes - r0);
        record_divergence st (fun t -> Array.unsafe_get ca t + co);
        dispatch st.all
      end
      else begin
        each_lane st c.ipre;
        record_divergence st (fun t -> Array.unsafe_get ca t + co);
        each_lane st run
      end
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
  | CFor { idx; get_lo; get_hi; step; body } -> (
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
              if st.alive.(t) then idx.(t) <- !v
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
let launch_ext ?engine ?affine ?backend ?license ?trace mem prog (l : launch) =
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
  (* parameters become constants / array bindings. A host bound to a
     parameter the body assigns to is taken writable ([Memory.get]: a
     shared array is copied here, once, before any block runs), and so
     is every other parameter bound to it; the rest is only read and
     never copied *)
  let assigned =
    fold_stmts
      (fun acc s -> match s with Assign (Lindex (a, _), _) -> a :: acc | _ -> acc)
      [] kernel.k_body
  in
  let writable =
    List.filter_map
      (fun (p, a) -> match a with Arg_array h when List.mem p assigned -> Some h | _ -> None)
      bound
  in
  List.iter
    (fun (p, a) ->
      let b =
        match (p, a) with
        | _, Arg_array host -> (
            let access = if List.mem host writable then Memory.get else Memory.read in
            match access mem host with
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
  let grant =
    if affine then
      Kft_analysis.Absint.grant
        (match license with Some lic -> lic | None -> Kft_analysis.Absint.license prog l)
    else Thread_order
  in
  let lanes = Array.init nthreads Fun.id in
  (* Each chunk compiles against its own state (closures capture the
     register files), walks its contiguous block range and returns the
     parameter names it observed reading/writing. [table] and [body] are
     shared read-only. *)
  let run_chunk (b_lo, b_hi) =
    let st =
      {
        kernel_name = kernel.k_name;
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
        lanes = affine;
        grant;
        all = { ids = lanes; n = nthreads };
        one = { ids = [| 0 |]; n = 1 };
        stmt_runs = 0;
        stamps = Hashtbl.create 4;
        flop_n = 0;
        read_flags = Hashtbl.create 8;
        write_flags = Hashtbl.create 8;
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
      (* fold the lane path's flop count into the stats record once per
         block: [base] saw the previous block's fold, so the delta below
         is exactly this block's contribution *)
      if st.lanes then stats.flops <- float_of_int st.flop_n;
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
  Trace.note trace "lanes" (Trace.Str (if grant <> Thread_order then "all" else "one"));
  (stats, usage_to_host kernel l.l_args (List.sort_uniq compare reads, List.sort_uniq compare writes))

let launch ?engine ?affine ?backend ?license ?trace mem prog l =
  fst (launch_ext ?engine ?affine ?backend ?license ?trace mem prog l)

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
