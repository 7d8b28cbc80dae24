open Kft_cuda.Ast
module Loc = Kft_cuda.Loc
module Pp = Kft_cuda.Pp
module Access = Kft_analysis.Access
module Ddg = Kft_ddg.Ddg
module Fusion = Kft_codegen.Fusion
module Canonical = Kft_codegen.Canonical
module Codegen = Kft_codegen.Codegen
module Schedflow = Kft_schedflow.Schedflow
module Absint = Kft_absint.Absint

type pass = Race | Barrier | Bounds | Translation | Schedule | Engine

let pass_name = function
  | Race -> "race"
  | Barrier -> "barrier"
  | Bounds -> "bounds"
  | Translation -> "translation"
  | Schedule -> "schedule"
  | Engine -> "engine"

type diagnostic = {
  d_kernel : string;
  d_pass : pass;
  d_loc : Loc.pos;
  d_stmt : string;
  d_array : string;  (* array the finding is about, "" when not array-specific *)
  d_message : string;
}

let pp_diagnostic d =
  let loc = if Loc.is_none d.d_loc then "" else Loc.pp d.d_loc ^ ":" in
  let stmt = if d.d_stmt = "" then "" else Printf.sprintf " -- %s" d.d_stmt in
  Printf.sprintf "%s:%s[%s] %s%s" d.d_kernel loc (pass_name d.d_pass) d.d_message stmt

type stats = {
  launches_checked : int;
  blocks_sampled : int;
  threads_walked : int;
  events : int;
  bounds_proved : int;  (* launches whose every access absint proved in bounds *)
  bounds_fallback : int;  (* launches that needed the sampled bounds walk *)
  races_proved : int;  (* launches proved race-free from the absint access forms *)
  races_fallback : int;  (* launches the proof left to the sampled thread walk *)
  sched_deps_checked : int;  (* source schedule dependences checked end-to-end *)
  sched_fallback : int;  (* source launches the member mapping could not place *)
}

type report = { diagnostics : diagnostic list; stats : stats; complete : bool }

let empty_stats =
  {
    launches_checked = 0;
    blocks_sampled = 0;
    threads_walked = 0;
    events = 0;
    bounds_proved = 0;
    bounds_fallback = 0;
    races_proved = 0;
    races_fallback = 0;
    sched_deps_checked = 0;
    sched_fallback = 0;
  }
let empty_report = { diagnostics = []; stats = empty_stats; complete = true }

(* per-pass finding counts in a fixed pass order (trace counters and the
   @trace sweep consume this; the fixed order keeps it byte-stable) *)
let pass_counts r =
  List.map
    (fun p ->
      ( pass_name p,
        List.length (List.filter (fun (d : diagnostic) -> d.d_pass = p) r.diagnostics) ))
    [ Race; Barrier; Bounds; Translation; Schedule; Engine ]

(* Diagnostics are kept in a canonical order — (kernel, line, col, pass,
   message, statement, array) — so that merged or parallel-produced
   reports render identically regardless of scheduling ([--jobs] sweeps
   must be byte-stable). [sort_uniq] also deduplicates across merged
   reports; the array name participates so two different-array findings
   at the same kernel:line:col never collapse into one. *)
let compare_diagnostics (a : diagnostic) (b : diagnostic) =
  let c = compare a.d_kernel b.d_kernel in
  if c <> 0 then c
  else
    let c = compare a.d_loc.line b.d_loc.line in
    if c <> 0 then c
    else
      let c = compare a.d_loc.col b.d_loc.col in
      if c <> 0 then c
      else
        let c = compare (pass_name a.d_pass) (pass_name b.d_pass) in
        if c <> 0 then c
        else
          let c = compare a.d_message b.d_message in
          if c <> 0 then c
          else
            let c = compare a.d_stmt b.d_stmt in
            if c <> 0 then c else compare a.d_array b.d_array

let normalize_diagnostics ds = List.sort_uniq compare_diagnostics ds

let merge a b =
  {
    diagnostics = normalize_diagnostics (a.diagnostics @ b.diagnostics);
    stats =
      {
        launches_checked = a.stats.launches_checked + b.stats.launches_checked;
        blocks_sampled = a.stats.blocks_sampled + b.stats.blocks_sampled;
        threads_walked = a.stats.threads_walked + b.stats.threads_walked;
        events = a.stats.events + b.stats.events;
        bounds_proved = a.stats.bounds_proved + b.stats.bounds_proved;
        bounds_fallback = a.stats.bounds_fallback + b.stats.bounds_fallback;
        races_proved = a.stats.races_proved + b.stats.races_proved;
        races_fallback = a.stats.races_fallback + b.stats.races_fallback;
        sched_deps_checked = a.stats.sched_deps_checked + b.stats.sched_deps_checked;
        sched_fallback = a.stats.sched_fallback + b.stats.sched_fallback;
      };
    complete = a.complete && b.complete;
  }

let is_clean r = r.diagnostics = []
let default_budget = 10_000_000

(* ------------------------------------------------------------------ *)
(* Diagnostic collection                                               *)
(* ------------------------------------------------------------------ *)

(* One-line statement rendering is quoted in diagnostics and in the
   access bookkeeping; the walker may reach the same physical statement
   millions of times, so the rendering is memoized on physical identity
   (same bucket/equality discipline as [Loc.Tbl]), per collector. *)
module Stmt_memo = Hashtbl.Make (struct
  type t = stmt

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type collector = {
  seen : (string, unit) Hashtbl.t;
  memo : string Stmt_memo.t;
  mutable out : diagnostic list;  (* reversed *)
  mutable events : int;
  budget : int;
  mutable complete : bool;
  mutable launches : int;
  mutable blocks : int;
  mutable threads : int;
  mutable bproved : int;
  mutable bfallback : int;
  mutable rproved : int;
  mutable rfallback : int;
  mutable sdeps : int;
  mutable sfallback : int;
}

let new_collector budget =
  {
    seen = Hashtbl.create 64;
    memo = Stmt_memo.create 64;
    out = [];
    events = 0;
    budget;
    complete = true;
    launches = 0;
    blocks = 0;
    threads = 0;
    bproved = 0;
    bfallback = 0;
    rproved = 0;
    rfallback = 0;
    sdeps = 0;
    sfallback = 0;
  }

let stmt_line col s =
  match Stmt_memo.find_opt col.memo s with
  | Some text -> text
  | None ->
      let text = Pp.stmt ~indent:0 s in
      let text =
        match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text
      in
      let text = String.trim text in
      let text = if String.length text > 72 then String.sub text 0 69 ^ "..." else text in
      Stmt_memo.replace col.memo s text;
      text

let emit col ~pass ~kernel ~loc ~stmt ?(array = "") ~key fmt =
  Printf.ksprintf
    (fun msg ->
      (* the array participates in the dedupe key: two different-array
         findings at the same kernel:loc must both survive *)
      let k =
        Printf.sprintf "%s|%s|%s|%s|%s" (pass_name pass) kernel (Loc.pp loc) array key
      in
      if not (Hashtbl.mem col.seen k) then begin
        Hashtbl.replace col.seen k ();
        col.out <-
          {
            d_kernel = kernel;
            d_pass = pass;
            d_loc = loc;
            d_stmt = stmt;
            d_array = array;
            d_message = msg;
          }
          :: col.out
      end)
    fmt

let report_of col =
  {
    diagnostics = normalize_diagnostics (List.rev col.out);
    stats =
      {
        launches_checked = col.launches;
        blocks_sampled = col.blocks;
        threads_walked = col.threads;
        events = col.events;
        bounds_proved = col.bproved;
        bounds_fallback = col.bfallback;
        races_proved = col.rproved;
        races_fallback = col.rfallback;
        sched_deps_checked = col.sdeps;
        sched_fallback = col.sfallback;
      };
    complete = col.complete;
  }

(* ------------------------------------------------------------------ *)
(* Pass 2: barrier divergence (static taint analysis)                  *)
(* ------------------------------------------------------------------ *)

let contains_barrier stmts = fold_stmts (fun acc s -> acc || s = Syncthreads) false stmts
let contains_return stmts = fold_stmts (fun acc s -> acc || s = Return) false stmts

module Sset = Set.Make (String)

(* An expression is thread-dependent when its value can differ between
   threads of one block: it mentions threadIdx directly or a scalar
   tainted by it. blockIdx/blockDim/gridDim are uniform. A load is
   treated as uniform unless a subscript taints it (the subscripts are
   sub-expressions of the fold, so that case is already covered). *)
let tainted_expr tainted e =
  fold_expr
    (fun acc e ->
      acc
      || match e with Builtin (Thread_idx _) -> true | Var v -> Sset.mem v tainted | _ -> false)
    false e

let assigned_scalars stmts =
  fold_stmts
    (fun acc s ->
      match s with Assign (Lvar v, _) -> v :: acc | Decl (_, v, _) -> v :: acc | _ -> acc)
    [] stmts

(* Returns [true] when the kernel has (statically detectable) divergent
   barriers — the race pass is then skipped because barrier intervals
   are not well-defined. *)
let barrier_pass col kname body =
  let divergent = ref false in
  let has_barrier = contains_barrier body in
  let rec go tainted under loc0 stmts =
    List.fold_left
      (fun tainted s ->
        let loc =
          let l = Loc.find s in
          if Loc.is_none l then loc0 else l
        in
        match s with
        | Decl (_, v, Some e) when tainted_expr tainted e -> Sset.add v tainted
        | Decl _ -> tainted
        | Assign (Lvar v, e) when tainted_expr tainted e -> Sset.add v tainted
        | Assign _ -> tainted
        | If (c, t, e) ->
            let div = tainted_expr tainted c in
            if div && not under then begin
              if contains_barrier t || contains_barrier e then begin
                divergent := true;
                emit col ~pass:Barrier ~kernel:kname ~loc ~stmt:(stmt_line col s) ~key:"div-if"
                  "__syncthreads() under thread-dependent conditional"
              end;
              if has_barrier && (contains_return t || contains_return e) then begin
                divergent := true;
                emit col ~pass:Barrier ~kernel:kname ~loc ~stmt:(stmt_line col s) ~key:"div-return"
                  "thread-dependent early return in a kernel that uses __syncthreads()"
              end
            end;
            let t1 = go tainted (under || div) loc t in
            let t2 = go tainted (under || div) loc e in
            (* scalars assigned under a divergent condition become
               thread-dependent themselves *)
            let extra =
              if div then Sset.of_list (assigned_scalars t @ assigned_scalars e)
              else Sset.empty
            in
            Sset.union extra (Sset.union t1 t2)
        | For l ->
            let div = tainted_expr tainted l.lo || tainted_expr tainted l.hi in
            if div && (not under) && contains_barrier l.body then begin
              divergent := true;
              emit col ~pass:Barrier ~kernel:kname ~loc ~stmt:(stmt_line col s) ~key:"div-for"
                "__syncthreads() inside loop with thread-dependent trip count"
            end;
            let inner = if div then Sset.add l.index tainted else tainted in
            go inner (under || div) loc l.body
        | Shared_decl _ | Syncthreads | Return -> tainted)
      tainted stmts
  in
  ignore (go Sset.empty false Loc.none body);
  !divergent

(* ------------------------------------------------------------------ *)
(* Passes 1 & 3: per-thread concrete walker                            *)
(* ------------------------------------------------------------------ *)

exception Returned
exception Budget

(* shared-access bookkeeping: per (array, barrier interval, linear cell) *)
type sacc = { s_tid : int; s_loc : Loc.pos; s_stmt : string }
type sentry = { mutable sw : sacc list; mutable sr : sacc list }

(* global-access bookkeeping: per (host array, linear cell) *)
type gacc = {
  g_bid : int;
  g_tid : int;
  g_iv : int;
  g_loc : Loc.pos;
  g_stmt : string;
  g_site : stmt option;  (* physical identity of the accessing statement *)
}

type gentry = { mutable gw : gacc list; mutable gr : gacc list }

type ctx = {
  col : collector;
  kname : string;
  block : int * int * int;
  grid : int * int * int;
  int_params : (string * int) list;
  host_of : (string * string) list;  (* array param -> host array *)
  global_cells : (string * int) list;  (* array param -> extent in cells *)
  shared : (string * int list) list;  (* shared array -> declared dims *)
  shared_tab : (string * int * int, sentry) Hashtbl.t;  (* reset per block *)
  global_tab : (string * int, gentry) Hashtbl.t;  (* per launch *)
  check_bounds : bool;
      (* false when kft_absint proved every access of this launch in
         bounds: the sampled walk then only feeds race analysis *)
}

type tstate = {
  mutable scalars : (string, int option) Hashtbl.t;
  mutable interval : int;
  mutable cloc : Loc.pos;
  mutable cstmt : stmt option;
  tid : int;
  bid : int;
  thread : int * int * int;
  block_idx : int * int * int;
}

(* Rendered lazily: most accesses never surface in a diagnostic, so the
   string is only built when emitting or remembering an access. *)
let stmt_of ctx st = match st.cstmt with Some s -> stmt_line ctx.col s | None -> ""

let same_site a b = match (a, b) with Some x, Some y -> x == y | _ -> false

(* classification of a subscript via the affine thread probe — quoted in
   race diagnostics so the reader sees the per-thread access pattern *)
let classify_subscripts ctx idxs =
  let one e =
    match Access.affine_threads ~bindings:ctx.int_params ~loops:[] e with
    | Some (coeffs, c0) ->
        let terms =
          List.map (fun (v, c) -> Printf.sprintf "%d*%s" c v) coeffs
          @ (if c0 <> 0 || coeffs = [] then [ string_of_int c0 ] else [])
        in
        "affine " ^ String.concat "+" terms
    | None -> "non-affine"
  in
  String.concat ", " (List.map one idxs)

let rec eval ctx st e =
  match e with
  | Int_lit i -> Some i
  | Double_lit _ -> None
  | Var v -> ( match Hashtbl.find_opt st.scalars v with Some x -> x | None -> None)
  | Builtin b -> (
      let tx, ty, tz = st.thread
      and bix, biy, biz = st.block_idx
      and bx, by, bz = ctx.block
      and gx, gy, gz = ctx.grid in
      match b with
      | Thread_idx X -> Some tx
      | Thread_idx Y -> Some ty
      | Thread_idx Z -> Some tz
      | Block_idx X -> Some bix
      | Block_idx Y -> Some biy
      | Block_idx Z -> Some biz
      | Block_dim X -> Some bx
      | Block_dim Y -> Some by
      | Block_dim Z -> Some bz
      | Grid_dim X -> Some gx
      | Grid_dim Y -> Some gy
      | Grid_dim Z -> Some gz)
  | Binop (And, a, b) -> (
      match eval ctx st a with
      | Some 0 -> Some 0 (* short circuit: b is not evaluated, so no access *)
      | Some _ -> (
          match eval ctx st b with Some vb -> Some (if vb <> 0 then 1 else 0) | None -> None)
      | None -> None)
  | Binop (Or, a, b) -> (
      match eval ctx st a with
      | Some v when v <> 0 -> Some 1
      | Some _ -> (
          match eval ctx st b with Some vb -> Some (if vb <> 0 then 1 else 0) | None -> None)
      | None -> None)
  | Binop (op, a, b) -> (
      let va = eval ctx st a and vb = eval ctx st b in
      match (va, vb) with
      | Some va, Some vb -> (
          match op with
          | Add -> Some (va + vb)
          | Sub -> Some (va - vb)
          | Mul -> Some (va * vb)
          | Div -> if vb = 0 then None else Some (va / vb)
          | Mod -> if vb = 0 then None else Some (va mod vb)
          | Lt -> Some (if va < vb then 1 else 0)
          | Le -> Some (if va <= vb then 1 else 0)
          | Gt -> Some (if va > vb then 1 else 0)
          | Ge -> Some (if va >= vb then 1 else 0)
          | Eq -> Some (if va = vb then 1 else 0)
          | Ne -> Some (if va <> vb then 1 else 0)
          | And | Or -> None (* handled above *))
      | _ -> None)
  | Unop (Neg, a) -> Option.map (fun v -> -v) (eval ctx st a)
  | Unop (Not, a) -> Option.map (fun v -> if v = 0 then 1 else 0) (eval ctx st a)
  | Ternary (c, a, b) -> (
      match eval ctx st c with
      | Some 0 -> eval ctx st b
      | Some _ -> eval ctx st a
      | None ->
          (* over-approximate: record accesses of both arms *)
          ignore (eval ctx st a);
          ignore (eval ctx st b);
          None)
  | Call ("min", [ a; b ]) -> (
      match (eval ctx st a, eval ctx st b) with
      | Some x, Some y -> Some (min x y)
      | _ -> None)
  | Call ("max", [ a; b ]) -> (
      match (eval ctx st a, eval ctx st b) with
      | Some x, Some y -> Some (max x y)
      | _ -> None)
  | Call ("abs", [ a ]) -> Option.map abs (eval ctx st a)
  | Call (_, args) ->
      List.iter (fun a -> ignore (eval ctx st a)) args;
      None
  | Index (a, idxs) ->
      record_access ctx st ~write:false a idxs;
      None

and record_access ctx st ~write a idxs =
  let loc = st.cloc in
  match List.assoc_opt a ctx.shared with
  | Some dims ->
      if List.length idxs <> List.length dims then () (* Check.kernel reports the rank error *)
      else begin
        let vals = List.map (eval ctx st) idxs in
        if List.exists (fun v -> v = None) vals then
          emit ctx.col ~pass:Engine ~kernel:ctx.kname ~loc ~stmt:(stmt_of ctx st)
            ~key:("ssub|" ^ a)
            "subscript of shared %s is not statically evaluable; race/bounds analysis is incomplete for it"
            a
        else begin
          let ivals = List.map Option.get vals in
          let in_bounds = ref true in
          List.iteri
            (fun i (v, d) ->
              if v < 0 || v >= d then begin
                in_bounds := false;
                if ctx.check_bounds then
                  emit ctx.col ~pass:Bounds ~kernel:ctx.kname ~loc ~stmt:(stmt_of ctx st)
                    ~key:(Printf.sprintf "sb|%s|%d" a i)
                    "subscript %d of shared %s out of range: %d not in [0,%d)" i a v d
              end)
            (List.combine ivals dims);
          if !in_bounds then
            let lin = List.fold_left2 (fun acc v d -> (acc * d) + v) 0 ivals dims in
            shared_conflicts ctx st ~write ~loc a idxs lin
        end
      end
  | None -> (
      match List.assoc_opt a ctx.global_cells with
      | None -> () (* unknown array: Check.kernel reports it *)
      | Some cells -> (
          match idxs with
          | [ idx ] -> (
              match eval ctx st idx with
              | None ->
                  emit ctx.col ~pass:Engine ~kernel:ctx.kname ~loc ~stmt:(stmt_of ctx st)
                    ~key:("gsub|" ^ a)
                    "index of global %s is not statically evaluable; race/bounds analysis is incomplete for it"
                    a
              | Some v ->
                  let host =
                    match List.assoc_opt a ctx.host_of with Some h -> h | None -> a
                  in
                  if v < 0 || v >= cells then begin
                    if ctx.check_bounds then
                      emit ctx.col ~pass:Bounds ~kernel:ctx.kname ~loc ~stmt:(stmt_of ctx st)
                        ~key:(Printf.sprintf "gb|%s|%s" a (if write then "w" else "r"))
                        "out-of-bounds %s of %s: index %d outside extent of %d cells (halo not guarded?)"
                        (if write then "write" else "read")
                        a v cells
                  end
                  else global_conflicts ctx st ~write ~loc host v)
          | _ -> () (* rank error: Check.kernel reports it *)))

and shared_conflicts ctx st ~write ~loc a idxs lin =
  let key = (a, st.interval, lin) in
  let entry =
    match Hashtbl.find_opt ctx.shared_tab key with
    | Some e -> e
    | None ->
        let e = { sw = []; sr = [] } in
        Hashtbl.replace ctx.shared_tab key e;
        e
  in
  let report kind (other : sacc) =
    emit ctx.col ~pass:Race ~kernel:ctx.kname ~loc ~stmt:(stmt_of ctx st)
      ~key:(Printf.sprintf "%s|%s|%s|%s" kind a (Loc.pp other.s_loc) other.s_stmt)
      "%s race on shared %s: threads %d and %d of one block touch the same cell (index %d) \
       between the same barriers; other access%s: %s [subscripts: %s]"
      (if kind = "ww" then "write-write" else "read-write")
      a st.tid other.s_tid lin
      (if Loc.is_none other.s_loc then "" else " at " ^ Loc.pp other.s_loc)
      other.s_stmt (classify_subscripts ctx idxs)
  in
  if write then begin
    (match List.find_opt (fun w -> w.s_tid <> st.tid) entry.sw with
    | Some w -> report "ww" w
    | None -> ());
    (match List.find_opt (fun r -> r.s_tid <> st.tid) entry.sr with
    | Some r -> report "rw" r
    | None -> ());
    if (not (List.exists (fun w -> w.s_tid = st.tid) entry.sw)) && List.length entry.sw < 4
    then entry.sw <- { s_tid = st.tid; s_loc = loc; s_stmt = stmt_of ctx st } :: entry.sw
  end
  else begin
    (match List.find_opt (fun w -> w.s_tid <> st.tid) entry.sw with
    | Some w -> report "rw" w
    | None -> ());
    if (not (List.exists (fun r -> r.s_tid = st.tid) entry.sr)) && List.length entry.sr < 4
    then entry.sr <- { s_tid = st.tid; s_loc = loc; s_stmt = stmt_of ctx st } :: entry.sr
  end

and global_conflicts ctx st ~write ~loc host lin =
  let key = (host, lin) in
  let entry =
    match Hashtbl.find_opt ctx.global_tab key with
    | Some e -> e
    | None ->
        let e = { gw = []; gr = [] } in
        Hashtbl.replace ctx.global_tab key e;
        e
  in
  let distinct (o : gacc) = o.g_bid <> st.bid || o.g_tid <> st.tid in
  (* a barrier orders accesses of the same block in different intervals;
     nothing orders accesses of different blocks within one launch *)
  let unordered (o : gacc) = o.g_bid <> st.bid || o.g_iv = st.interval in
  let report kind (other : gacc) =
    emit ctx.col ~pass:Race ~kernel:ctx.kname ~loc ~stmt:(stmt_of ctx st)
      ~key:(Printf.sprintf "%s|%s|%s|%s" kind host (Loc.pp other.g_loc) other.g_stmt)
      "%s race on global %s: %s threads access the same cell (index %d) with no ordering \
       barrier; other access%s: %s"
      (if kind = "ww" then "write-write" else "read-write")
      host
      (if other.g_bid <> st.bid then "different blocks'" else "two")
      lin
      (if Loc.is_none other.g_loc then "" else " at " ^ Loc.pp other.g_loc)
      other.g_stmt
  in
  let remember l mk cap =
    if
      (not
         (List.exists
            (fun (o : gacc) -> o.g_bid = st.bid && o.g_tid = st.tid && same_site o.g_site st.cstmt)
            l))
      && List.length l < cap
    then
      mk
        {
          g_bid = st.bid;
          g_tid = st.tid;
          g_iv = st.interval;
          g_loc = loc;
          g_stmt = stmt_of ctx st;
          g_site = st.cstmt;
        }
  in
  if write then begin
    (* cooperative recompute in fused producers re-executes the same
       statement in several blocks' halos, duplicating an idempotent
       write: same-site write-write pairs are deliberately not races *)
    (match
       List.find_opt (fun w -> distinct w && unordered w && not (same_site w.g_site st.cstmt)) entry.gw
     with
    | Some w -> report "ww" w
    | None -> ());
    (match List.find_opt (fun r -> distinct r && unordered r) entry.gr with
    | Some r -> report "rw" r
    | None -> ());
    remember entry.gw (fun x -> entry.gw <- x :: entry.gw) 6
  end
  else begin
    (match List.find_opt (fun w -> distinct w && unordered w) entry.gw with
    | Some w -> report "rw" w
    | None -> ());
    remember entry.gr (fun x -> entry.gr <- x :: entry.gr) 6
  end

let rec exec ctx st stmts =
  List.iter
    (fun s ->
      ctx.col.events <- ctx.col.events + 1;
      if ctx.col.events > ctx.col.budget then raise Budget;
      let saved_loc = st.cloc and saved_stmt = st.cstmt in
      let l = Loc.find s in
      if not (Loc.is_none l) then st.cloc <- l;
      st.cstmt <- Some s;
      (match s with
      | Decl (_, v, init) ->
          let value = match init with Some e -> eval ctx st e | None -> None in
          Hashtbl.replace st.scalars v value
      | Shared_decl _ -> ()
      | Assign (Lvar v, e) -> Hashtbl.replace st.scalars v (eval ctx st e)
      | Assign (Lindex (a, idxs), e) ->
          ignore (eval ctx st e);
          record_access ctx st ~write:true a idxs
      | If (c, t, els) -> (
          match eval ctx st c with
          | Some 0 -> exec ctx st els
          | Some _ -> exec ctx st t
          | None ->
              if contains_barrier t || contains_barrier els then begin
                (* pass 2 proved the condition uniform, but we cannot
                   resolve it — taking one branch would desynchronize the
                   interval counter, so flag and follow the then-branch *)
                emit ctx.col ~pass:Engine ~kernel:ctx.kname ~loc:st.cloc ~stmt:(stmt_line ctx.col s)
                  ~key:"if-barrier"
                  "conditional guarding __syncthreads() is not statically evaluable";
                exec ctx st t
              end
              else begin
                let snapshot = Hashtbl.copy st.scalars in
                exec ctx st t;
                let after_t = st.scalars in
                st.scalars <- snapshot;
                exec ctx st els;
                (* merge: agreeing bindings survive, the rest go unknown *)
                let merged = Hashtbl.create (Hashtbl.length after_t) in
                Hashtbl.iter
                  (fun k v ->
                    match Hashtbl.find_opt after_t k with
                    | Some v' when v' = v -> Hashtbl.replace merged k v
                    | Some _ -> Hashtbl.replace merged k None
                    | None -> Hashtbl.replace merged k None)
                  st.scalars;
                Hashtbl.iter
                  (fun k v ->
                    if not (Hashtbl.mem merged k) then
                      Hashtbl.replace merged k (if Hashtbl.mem st.scalars k then None else v))
                  after_t;
                st.scalars <- merged
              end)
      | For l -> (
          let lo = eval ctx st l.lo and hi = eval ctx st l.hi in
          let saved = Hashtbl.find_opt st.scalars l.index in
          let restore () =
            match saved with
            | Some v -> Hashtbl.replace st.scalars l.index v
            | None -> Hashtbl.remove st.scalars l.index
          in
          match (lo, hi) with
          | Some lo, Some hi ->
              let i = ref lo in
              while !i < hi do
                Hashtbl.replace st.scalars l.index (Some !i);
                exec ctx st l.body;
                i := !i + l.step
              done;
              restore ()
          | _ ->
              if contains_barrier l.body then
                emit ctx.col ~pass:Engine ~kernel:ctx.kname ~loc:st.cloc ~stmt:(stmt_line ctx.col s)
                  ~key:"for-barrier"
                  "bounds of loop containing __syncthreads() are not statically evaluable";
              Hashtbl.replace st.scalars l.index None;
              exec ctx st l.body;
              restore ())
      | Syncthreads -> st.interval <- st.interval + 1
      | Return ->
          st.cloc <- saved_loc;
          st.cstmt <- saved_stmt;
          raise Returned);
      st.cloc <- saved_loc;
      st.cstmt <- saved_stmt)
    stmts

(* ------------------------------------------------------------------ *)
(* Launch driver                                                       *)
(* ------------------------------------------------------------------ *)

(* corner blocks plus the first interior neighbours, where halo overlap
   between adjacent blocks materializes; capped at 8 blocks *)
let sample_blocks (gx, gy, gz) =
  let axis n = List.sort_uniq compare (List.filter (fun v -> v >= 0 && v < n) [ 0; 1; n - 1 ]) in
  let out = ref [] in
  List.iter
    (fun z ->
      List.iter (fun y -> List.iter (fun x -> out := (x, y, z) :: !out) (axis gx)) (axis gy))
    (axis gz);
  let all = List.rev !out in
  let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r in
  take 8 all

let all_blocks (gx, gy, gz) =
  List.concat_map
    (fun z -> List.concat_map (fun y -> List.init gx (fun x -> (x, y, z))) (List.init gy Fun.id))
    (List.init gz Fun.id)

(* the race proof of one analyzed launch: array parameters meet through
   their host arrays, whose declared dimensions split global indices
   into coordinates *)
let race_verdict prog host_of absint =
  Absint.prove_race_free absint
    ~host_of:(fun p -> match List.assoc_opt p host_of with Some h -> h | None -> p)
    ~dims_of:(fun h ->
      match find_array prog h with d -> Some d.a_dims | exception Not_found -> None)

(* [exhaustive]: no race proof, and the walk covers every block *)
let verify_launch_into ?(exhaustive = false) col prog (l : launch) =
  match find_kernel prog l.l_kernel with
  | exception Not_found -> () (* Check.program reports it *)
  | k ->
      col.launches <- col.launches + 1;
      let bound = try bind_args k l.l_args with Invalid_argument _ -> [] in
      let int_params =
        List.filter_map (function name, Arg_int v -> Some (name, v) | _ -> None) bound
      in
      let host_of =
        List.filter_map (function name, Arg_array a -> Some (name, a) | _ -> None) bound
      in
      let global_cells =
        List.filter_map
          (fun (p, a) ->
            match find_array prog a with
            | d -> Some (p, array_cells d)
            | exception Not_found -> None)
          host_of
      in
      let shared =
        fold_stmts
          (fun acc s -> match s with Shared_decl (_, n, dims) -> (n, dims) :: acc | _ -> acc)
          [] k.k_body
      in
      (* sound bounds pass: abstract interpretation over the launch
         domain.  When it proves every access in bounds the sampled walk
         below stops double-checking subscripts (race analysis only);
         any access it cannot prove falls back to the sampled bounds
         checks.  Proved out-of-bounds accesses are reported here with
         the same dedupe keys the walker would use, so the two passes
         never double-report one defect. *)
      let absint =
        Absint.analyze_kernel ~block:l.l_block ~grid:(grid_of_launch l) ~int_params
          ~global_cells k
      in
      let bounds_proved = absint.Absint.res_all_proved in
      if bounds_proved then col.bproved <- col.bproved + 1
      else col.bfallback <- col.bfallback + 1;
      List.iter
        (fun (a : Absint.access) ->
          match (a.acc_status, a.acc_space) with
          | Absint.Oob, Absint.Global ->
              emit col ~pass:Bounds ~kernel:k.k_name ~loc:a.acc_loc ~stmt:""
                ~key:(Printf.sprintf "gb|%s|%s" a.acc_array (if a.acc_write then "w" else "r"))
                "out-of-bounds %s of %s: proved index range %s entirely outside extent of %d cells"
                (if a.acc_write then "write" else "read")
                a.acc_array (Absint.pp_itv a.acc_range) a.acc_extent
          | _ -> ())
        absint.Absint.res_accesses;
      let divergent = barrier_pass col k.k_name k.k_body in
      (* races are proved from the access forms the bounds pass already
         computed; the walk below runs only on launches the proof cannot
         settle (bounds not proved, or an access pair no rule covers) *)
      let races_proved =
        (not exhaustive) && (not divergent) && bounds_proved
        &&
        match race_verdict prog host_of absint with
        | Absint.Race_free _ -> true
        | Absint.Race_unsettled _ -> false
      in
      if races_proved then col.rproved <- col.rproved + 1
      else if not (exhaustive || divergent) then col.rfallback <- col.rfallback + 1;
      if divergent then
        emit col ~pass:Engine ~kernel:k.k_name ~loc:Loc.none ~stmt:"" ~key:"skip-races"
          "race analysis skipped: kernel has statically divergent barriers"
      else if not races_proved then begin
        let grid = grid_of_launch l in
        let bx, by, bz = l.l_block in
        let gx, gy, _ = grid in
        let ctx =
          {
            col;
            kname = k.k_name;
            block = l.l_block;
            grid;
            int_params;
            host_of;
            global_cells;
            shared;
            shared_tab = Hashtbl.create 1024;
            global_tab = Hashtbl.create 4096;
            check_bounds = not bounds_proved;
          }
        in
        try
          List.iter
            (fun (bix, biy, biz) ->
              col.blocks <- col.blocks + 1;
              Hashtbl.reset ctx.shared_tab;
              let bid = ((biz * gy) + biy) * gx + bix in
              for tz = 0 to bz - 1 do
                for ty = 0 to by - 1 do
                  for tx = 0 to bx - 1 do
                    col.threads <- col.threads + 1;
                    let scalars = Hashtbl.create 32 in
                    List.iter (fun (p, v) -> Hashtbl.replace scalars p (Some v)) int_params;
                    let st =
                      {
                        scalars;
                        interval = 0;
                        cloc = Loc.none;
                        cstmt = None;
                        tid = ((tz * by) + ty) * bx + tx;
                        bid;
                        thread = (tx, ty, tz);
                        block_idx = (bix, biy, biz);
                      }
                    in
                    try exec ctx st k.k_body with Returned -> ()
                  done
                done
              done)
            (if exhaustive then all_blocks grid else sample_blocks grid)
        with Budget ->
          col.complete <- false;
          emit col ~pass:Engine ~kernel:k.k_name ~loc:Loc.none ~stmt:"" ~key:"budget"
            "verification event budget exhausted; analysis incomplete"
      end

let verify_launch ?(budget = default_budget) prog l =
  let col = new_collector budget in
  verify_launch_into col prog l;
  report_of col

let verify_program ?(budget = default_budget) prog =
  let col = new_collector budget in
  List.iter
    (fun op ->
      match op with
      | Launch l when col.complete -> verify_launch_into col prog l
      | _ -> ())
    prog.p_schedule;
  report_of col

(* ------------------------------------------------------------------ *)
(* Pass 4: translation validation                                      *)
(* ------------------------------------------------------------------ *)

let validate ?(budget = default_budget) ?(options = Fusion.auto_options) ~source
    (res : Codegen.result) =
  let col = new_collector budget in
  (* passes 1-3 over everything the generator emitted *)
  List.iter
    (fun op ->
      match op with
      | Launch l when col.complete -> verify_launch_into col res.program l
      | _ -> ())
    res.program.p_schedule;
  (* member-order dependences + legality re-derivation for fused kernels *)
  let graphs = Ddg.build source in
  let launch_of name =
    List.find_map
      (function Launch l when l.l_kernel = name -> Some l | _ -> None)
      source.p_schedule
  in
  List.iter
    (fun (rep : Codegen.kernel_report) ->
      let fused = rep.fusion_kind <> `None && List.length rep.members >= 2 in
      if fused then begin
        let members = Array.of_list rep.members in
        let n = Array.length members in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if Ddg.oeg_precedes graphs members.(j) members.(i) then
              emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
                ~key:(Printf.sprintf "order|%s|%s" members.(i) members.(j))
                "fused member order violates the source DDG: %s must execute before %s"
                members.(j) members.(i)
          done
        done;
        (* re-derive group legality from scratch *)
        match
          List.mapi
            (fun i name ->
              match launch_of name with
              | None -> raise Not_found
              | Some l ->
                  Canonical.extract ~deep:options.deep_nest_strategy ~index:i source l)
            rep.members
        with
        | ms -> (
            match Fusion.check_group ms with
            | Ok _ -> ()
            | Error e ->
                emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
                  ~key:"legality" "legality re-check of the fused group failed: %s" e)
        | exception Canonical.Not_canonical r ->
            emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
              ~key:"canon" "a fused member is no longer canonical on re-extraction: %s" r
        | exception Not_found ->
            emit col ~pass:Translation ~kernel:rep.new_kernel ~loc:Loc.none ~stmt:""
              ~key:"launch" "a fused member has no launch in the source schedule"
      end)
    res.reports;
  (* schedule pass: whole-schedule dataflow issues on the transformed
     schedule, then end-to-end preservation of the source schedule DDG
     (the per-group member-order check above only sees pairs inside one
     fused kernel; this check covers every source dependence) *)
  let sf_out = Schedflow.analyze res.program in
  let out_ops = Array.of_list sf_out.Schedflow.ops in
  let op_kernel i =
    match out_ops.(i).Schedflow.op_kind with
    | Schedflow.Launch_op l -> l.l_kernel
    | _ -> ""
  in
  List.iter
    (fun issue ->
      match issue with
      | Schedflow.Read_before_write { rb_array; rb_op } ->
          emit col ~pass:Schedule ~kernel:(op_kernel rb_op) ~loc:Loc.none ~stmt:""
            ~array:rb_array
            ~key:(Printf.sprintf "rbw|%d" rb_op)
            "array %s is read at schedule op %d before any write" rb_array rb_op
      | Schedflow.Dead_store { ds_array; ds_op } ->
          emit col ~pass:Schedule ~kernel:(op_kernel ds_op) ~loc:Loc.none ~stmt:""
            ~array:ds_array
            ~key:(Printf.sprintf "dead|%d" ds_op)
            "the write to array %s at schedule op %d is never read back" ds_array ds_op)
    sf_out.Schedflow.issues;
  let deps = Schedflow.launch_deps (Schedflow.analyze source) in
  (* transformed position of each source launch: reports are emitted in
     transformed schedule order and list their source members by kernel
     name, so per-kernel FIFO queues resolve re-launches in order *)
  let queues : (string, int Queue.t) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun ti (rep : Codegen.kernel_report) ->
      List.iter
        (fun m ->
          let q =
            match Hashtbl.find_opt queues m with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace queues m q;
                q
          in
          Queue.add ti q)
        rep.members)
    res.reports;
  let src_launches =
    List.filter_map (function Launch l -> Some l | _ -> None) source.p_schedule
    |> Array.of_list
  in
  let pos =
    Array.map
      (fun (l : launch) ->
        match Hashtbl.find_opt queues l.l_kernel with
        | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
        | _ -> None)
      src_launches
  in
  let unplaced =
    Array.fold_left (fun n p -> if p = None then n + 1 else n) 0 pos
  in
  let leftover =
    Hashtbl.fold (fun _ q n -> n + Queue.length q) queues 0
  in
  col.sdeps <- col.sdeps + List.length deps;
  if unplaced > 0 || leftover > 0 then begin
    col.sfallback <- col.sfallback + unplaced + leftover;
    emit col ~pass:Schedule ~kernel:"" ~loc:Loc.none ~stmt:"" ~key:"coverage"
      "schedule DDG validation incomplete: %d source launch%s unplaced, %d transformed member%s unmatched"
      unplaced
      (if unplaced = 1 then "" else "es")
      leftover
      (if leftover = 1 then "" else "s")
  end;
  List.iter
    (fun (i, j, a) ->
      match (pos.(i), pos.(j)) with
      | Some pi, Some pj when pi > pj ->
          emit col ~pass:Schedule ~kernel:src_launches.(j).l_kernel ~loc:Loc.none
            ~stmt:"" ~array:a
            ~key:(Printf.sprintf "ddg|%d|%d" i j)
            "transformed schedule reorders a source dependence on %s: %s (launch %d) \
             must precede %s (launch %d)"
            a
            src_launches.(i).l_kernel i src_launches.(j).l_kernel j
      | _ -> ())
    deps;
  report_of col

module Internal = struct
  let walk_all_blocks ?(budget = default_budget) prog l =
    let col = new_collector budget in
    verify_launch_into ~exhaustive:true col prog l;
    report_of col

  let race_verdict prog l =
    Option.map
      (fun r ->
        let host_of =
          match bind_args (find_kernel prog l.l_kernel) l.l_args with
          | bound -> List.filter_map (function p, Arg_array a -> Some (p, a) | _ -> None) bound
          | exception Invalid_argument _ -> []
        in
        race_verdict prog host_of r)
      (Absint.analyze_launch prog l)
end
