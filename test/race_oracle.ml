(* Exhaustive race and bounds oracle: a concrete walk of one launch over
   every thread of every block, statement by statement.

   It is the reference the static race proof is tested against ("a
   launch the proof clears has no race on any block"), so it decides by
   execution, not by reasoning: two accesses to one cell, at least one a
   write, race when they come from distinct threads that no barrier
   orders, i.e. threads of different blocks, or threads of one block in
   the same barrier interval.  Global write-write pairs of one statement
   are exempt (cooperative halo recompute rewrites the same value), as
   in the proof.  Shared tiles are per block.  Accesses to host arrays
   the kernel never writes are checked for bounds only: they cannot
   race.

   Scalars the walk cannot evaluate (loads, unresolvable conditions)
   are tracked as unknown: an unknown subscript is skipped, both arms of
   an unknown branch run, and a loop with unknown bounds runs its body
   once.  Meant for small launches of kernels whose barriers are
   uniform; its cost grows with the grid. *)

open Kft_cuda.Ast
module Loc = Kft_cuda.Loc

type finding = Race of string | Bounds of string

let pp_finding = function Race m -> "race: " ^ m | Bounds m -> "bounds: " ^ m
let has_race = List.exists (function Race _ -> true | Bounds _ -> false)

exception Returned

(* one remembered global access; [site] is the physical statement *)
type gacc = { g_bid : int; g_tid : int; g_iv : int; g_write : bool; g_site : stmt }

(* one shared access of the current block *)
type sacc = { s_tid : int; s_write : bool; s_site : stmt }

type walk = {
  kname : string;
  block : int * int * int;
  grid : int * int * int;
  host_of : (string * string) list;
  written : string list;  (* hosts the kernel writes: only they can race *)
  cells : (string * int) list;
  shared : (string * int list) list;
  global_tab : (string * int, gacc list) Hashtbl.t;
  shared_tab : (string * int * int, sacc list) Hashtbl.t;  (* reset per block *)
  mutable findings : finding list;  (* reversed, first per (kind, cell) *)
  reported : (string, unit) Hashtbl.t;
}

type thread = {
  mutable scalars : (string, int option) Hashtbl.t;
  mutable interval : int;
  mutable site : stmt;
  tid : int;
  bid : int;
  tidx : int * int * int;
  bidx : int * int * int;
}

(* source position of an access's statement, for messages *)
let at site = Loc.pp (Loc.find site)

let report w key f =
  if not (Hashtbl.mem w.reported key) then begin
    Hashtbl.replace w.reported key ();
    w.findings <- f :: w.findings
  end

let pick (x, y, z) = function X -> x | Y -> y | Z -> z

let arith op x y =
  match op with
  | Add -> Some (x + y)
  | Sub -> Some (x - y)
  | Mul -> Some (x * y)
  | Div -> if y = 0 then None else Some (x / y)
  | Mod -> if y = 0 then None else Some (x mod y)
  | Lt -> Some (Bool.to_int (x < y))
  | Le -> Some (Bool.to_int (x <= y))
  | Gt -> Some (Bool.to_int (x > y))
  | Ge -> Some (Bool.to_int (x >= y))
  | Eq -> Some (Bool.to_int (x = y))
  | Ne -> Some (Bool.to_int (x <> y))
  | And | Or -> None

let rec eval w t e =
  match e with
  | Int_lit i -> Some i
  | Double_lit _ -> None
  | Var v -> Option.join (Hashtbl.find_opt t.scalars v)
  | Builtin b -> (
      match b with
      | Thread_idx d -> Some (pick t.tidx d)
      | Block_idx d -> Some (pick t.bidx d)
      | Block_dim d -> Some (pick w.block d)
      | Grid_dim d -> Some (pick w.grid d))
  | Binop (And, a, b) -> (
      match eval w t a with
      | Some 0 -> Some 0
      | Some _ -> Option.map (fun v -> Bool.to_int (v <> 0)) (eval w t b)
      | None -> None)
  | Binop (Or, a, b) -> (
      match eval w t a with
      | Some v when v <> 0 -> Some 1
      | Some _ -> Option.map (fun v -> Bool.to_int (v <> 0)) (eval w t b)
      | None -> None)
  | Binop (op, a, b) -> (
      let x = eval w t a in
      let y = eval w t b in
      match (x, y) with Some x, Some y -> arith op x y | _ -> None)
  | Unop (Neg, a) -> Option.map Int.neg (eval w t a)
  | Unop (Not, a) -> Option.map (fun v -> Bool.to_int (v = 0)) (eval w t a)
  | Ternary (c, a, b) -> (
      match eval w t c with
      | Some 0 -> eval w t b
      | Some _ -> eval w t a
      | None ->
          ignore (eval w t a);
          ignore (eval w t b);
          None)
  | Call (("min" | "max") as fn, [ a; b ]) -> (
      let x = eval w t a in
      let y = eval w t b in
      match (x, y) with Some x, Some y -> Some (if fn = "min" then min x y else max x y) | _ -> None)
  | Call ("abs", [ a ]) -> Option.map abs (eval w t a)
  | Call (_, args) ->
      List.iter (fun a -> ignore (eval w t a)) args;
      None
  | Index (a, idxs) ->
      access w t ~write:false a idxs;
      None

and access w t ~write a idxs =
  let vals = List.map (eval w t) idxs in
  if List.for_all Option.is_some vals then
    let vals = List.map Option.get vals in
    match (List.assoc_opt a w.shared, List.assoc_opt a w.cells, vals) with
    | Some dims, _, _ when List.length dims = List.length vals ->
        if List.exists2 (fun v d -> v < 0 || v >= d) vals dims then
          report w ("sb|" ^ a)
            (Bounds (Printf.sprintf "%s: shared %s subscript out of range at %s" w.kname a (at t.site)))
        else shared_access w t ~write a (List.fold_left2 (fun acc v d -> (acc * d) + v) 0 vals dims)
    | None, Some cells, [ v ] ->
        if v < 0 || v >= cells then
          report w ("gb|" ^ a)
            (Bounds (Printf.sprintf "%s: index %d of %s outside %d cells at %s" w.kname v a cells (at t.site)))
        else
          let host = Option.value ~default:a (List.assoc_opt a w.host_of) in
          if List.mem host w.written then global_access w t ~write host v
    | _ -> () (* rank or binding errors: Check reports them *)

and shared_access w t ~write a lin =
  let key = (a, t.interval, lin) in
  let prev = Option.value ~default:[] (Hashtbl.find_opt w.shared_tab key) in
  (match List.find_opt (fun o -> o.s_tid <> t.tid && (write || o.s_write)) prev with
  | Some o ->
      report w (Printf.sprintf "s|%s|%s|%s" a (at o.s_site) (at t.site))
        (Race
           (Printf.sprintf "%s: threads %d and %d of one block touch shared %s cell %d between the same barriers (%s, %s)"
              w.kname o.s_tid t.tid a lin (at o.s_site) (at t.site)))
  | None -> ());
  if not (List.exists (fun o -> o.s_tid = t.tid && o.s_write = write) prev) then
    Hashtbl.replace w.shared_tab key ({ s_tid = t.tid; s_write = write; s_site = t.site } :: prev)

and global_access w t ~write host lin =
  let key = (host, lin) in
  let prev = Option.value ~default:[] (Hashtbl.find_opt w.global_tab key) in
  let races o =
    (write || o.g_write)
    && (o.g_bid <> t.bid || o.g_tid <> t.tid)
    && (o.g_bid <> t.bid || o.g_iv = t.interval)
    && not (write && o.g_write && o.g_site == t.site)
  in
  (match List.find_opt races prev with
  | Some o ->
      report w (Printf.sprintf "g|%s|%s|%s" host (at o.g_site) (at t.site))
        (Race
           (Printf.sprintf "%s: %s threads meet on %s cell %d with no ordering barrier (%s, %s)"
              w.kname
              (if o.g_bid <> t.bid then "different blocks'" else "two")
              host lin (at o.g_site) (at t.site)))
  | None -> ());
  let same o =
    o.g_bid = t.bid && o.g_tid = t.tid && o.g_iv = t.interval && o.g_write = write && o.g_site == t.site
  in
  if not (List.exists same prev) then
    Hashtbl.replace w.global_tab key
      ({ g_bid = t.bid; g_tid = t.tid; g_iv = t.interval; g_write = write; g_site = t.site }
      :: prev)

let rec exec w t stmts =
  List.iter
    (fun s ->
      let saved_site = t.site in
      t.site <- s;
      (match s with
      | Decl (_, v, init) -> Hashtbl.replace t.scalars v (Option.bind init (eval w t))
      | Shared_decl _ -> ()
      | Assign (Lvar v, e) -> Hashtbl.replace t.scalars v (eval w t e)
      | Assign (Lindex (a, idxs), e) ->
          ignore (eval w t e);
          access w t ~write:true a idxs
      | If (c, th, el) -> (
          match eval w t c with
          | Some 0 -> exec w t el
          | Some _ -> exec w t th
          | None when contains_barrier th || contains_barrier el -> exec w t th
          | None ->
              (* both arms; scalars they disagree on become unknown *)
              let before = Hashtbl.copy t.scalars in
              exec w t th;
              let after_th = t.scalars in
              t.scalars <- before;
              exec w t el;
              Hashtbl.iter
                (fun k x ->
                  if Hashtbl.find_opt t.scalars k <> Some x then Hashtbl.replace t.scalars k None)
                after_th)
      | For l -> (
          let saved = Hashtbl.find_opt t.scalars l.index in
          (match (eval w t l.lo, eval w t l.hi) with
          | Some lo, Some hi ->
              let i = ref lo in
              while !i < hi do
                Hashtbl.replace t.scalars l.index (Some !i);
                exec w t l.body;
                i := !i + l.step
              done
          | _ ->
              Hashtbl.replace t.scalars l.index None;
              exec w t l.body);
          match saved with
          | Some x -> Hashtbl.replace t.scalars l.index x
          | None -> Hashtbl.remove t.scalars l.index)
      | Syncthreads -> t.interval <- t.interval + 1
      | Return -> raise Returned);
      t.site <- saved_site)
    stmts

(* every finding of one launch, in discovery order; [] when the launch
   does not resolve against the program *)
let walk prog (l : launch) =
  match find_kernel prog l.l_kernel with
  | exception Not_found -> []
  | k -> (
      match bind_args k l.l_args with
      | exception Invalid_argument _ -> []
      | bound ->
          let host_of = List.filter_map (function p, Arg_array a -> Some (p, a) | _ -> None) bound in
          let ints = List.filter_map (function p, Arg_int v -> Some (p, Some v) | _ -> None) bound in
          let w =
            {
              kname = k.k_name;
              block = l.l_block;
              grid = grid_of_launch l;
              host_of;
              written =
                List.map (fun a -> Option.value ~default:a (List.assoc_opt a host_of)) (arrays_written k.k_body);
              cells =
                List.filter_map
                  (fun (p, a) ->
                    match find_array prog a with
                    | d -> Some (p, array_cells d)
                    | exception Not_found -> None)
                  host_of;
              shared =
                fold_stmts
                  (fun acc s -> match s with Shared_decl (_, n, dims) -> (n, dims) :: acc | _ -> acc)
                  [] k.k_body;
              global_tab = Hashtbl.create 4096;
              shared_tab = Hashtbl.create 1024;
              findings = [];
              reported = Hashtbl.create 16;
            }
          in
          let bx, by, bz = l.l_block and gx, gy, gz = w.grid in
          for biz = 0 to gz - 1 do
            for biy = 0 to gy - 1 do
              for bix = 0 to gx - 1 do
                Hashtbl.reset w.shared_tab;
                for tz = 0 to bz - 1 do
                  for ty = 0 to by - 1 do
                    for tx = 0 to bx - 1 do
                      let t =
                        {
                          scalars = Hashtbl.of_seq (List.to_seq ints);
                          interval = 0;
                          site = Return;
                          tid = (((tz * by) + ty) * bx) + tx;
                          bid = (((biz * gy) + biy) * gx) + bix;
                          tidx = (tx, ty, tz);
                          bidx = (bix, biy, biz);
                        }
                      in
                      try exec w t k.k_body with Returned -> ()
                    done
                  done
                done
              done
            done
          done;
          List.rev w.findings)
