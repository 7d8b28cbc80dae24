open Ast

type error = {
  where : string;
  loc : Loc.pos;
  what : string;
}

let pp_error e =
  if Loc.is_none e.loc then Printf.sprintf "%s:%s" e.where e.what
  else Printf.sprintf "%s:%s:%s" e.where (Loc.pp e.loc) e.what

let dedupe errs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.replace seen e ();
        true
      end)
    errs

type binding = Scalar of scalar_ty | Global_array of bool (* writable *) | Shared_array of int

(* Scalars whose value may differ between threads of a block: anything
   (transitively) computed from threadIdx.  blockIdx/blockDim/gridDim are
   uniform across the block and do not taint. *)
let thread_dependent tainted e =
  fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Builtin (Thread_idx _) -> true
      | Var v -> List.mem v tainted
      | Index (_, _) ->
          (* a load's value may differ per thread as soon as any subscript
             does; subscripts are sub-expressions of this fold, so a
             conservative "tainted if any subscript is" is what the
             recursive fold already gives us. Treat the load itself as
             uniform unless a subscript taints it. *)
          false
      | _ -> false)
    false e

let kernel (k : kernel) =
  let errors = ref [] in
  let current_loc = ref Loc.none in
  let err fmt =
    Printf.ksprintf
      (fun what -> errors := { where = k.k_name; loc = !current_loc; what } :: !errors)
      fmt
  in
  let scope : (string, binding) Hashtbl.t = Hashtbl.create 32 in
  let declare name b =
    if Hashtbl.mem scope name then err "identifier %s declared twice" name
    else Hashtbl.replace scope name b
  in
  List.iter
    (fun p ->
      match p with
      | Array_param { name; quals; _ } -> declare name (Global_array (not (List.mem Const quals)))
      | Scalar_param { name; ty } -> declare name (Scalar ty))
    k.k_params;
  let rec check_expr e =
    match e with
    | Int_lit _ | Double_lit _ | Builtin _ -> ()
    | Var v -> (
        match Hashtbl.find_opt scope v with
        | Some (Scalar _) -> ()
        | Some (Global_array _ | Shared_array _) -> err "array %s used as a scalar" v
        | None -> err "undeclared identifier %s" v)
    | Binop (_, a, b) ->
        check_expr a;
        check_expr b
    | Unop (_, a) -> check_expr a
    | Index (a, idxs) ->
        (match Hashtbl.find_opt scope a with
        | Some (Global_array _) ->
            if List.length idxs <> 1 then
              err "global array %s must use a single linearized index" a
        | Some (Shared_array rank) ->
            if List.length idxs <> rank then
              err "shared array %s has rank %d but is indexed with %d subscripts" a rank
                (List.length idxs)
        | Some (Scalar _) -> err "scalar %s is indexed" a
        | None -> err "undeclared array %s" a);
        List.iter check_expr idxs
    | Call (_, args) -> List.iter check_expr args
    | Ternary (c, a, b) ->
        check_expr c;
        check_expr a;
        check_expr b
  in
  let contains_barrier stmts =
    fold_stmts (fun acc s -> acc || s = Syncthreads) false stmts
  in
  (* [tainted]: thread-dependent scalars in scope; [divergent]: are we
     statically under a thread-dependent conditional? *)
  let rec check_stmts ~tainted ~divergent stmts =
    let tainted = ref tainted in
    List.iter
      (fun s ->
        let saved = !current_loc in
        let here = Loc.find s in
        if not (Loc.is_none here) then current_loc := here;
        (match s with
        | Decl (ty, v, init) ->
            Option.iter check_expr init;
            (match init with
            | Some e when thread_dependent !tainted e -> tainted := v :: !tainted
            | _ -> ());
            declare v (Scalar ty)
        | Shared_decl (_, n, dims) ->
            if List.exists (fun d -> d <= 0) dims then
              err "shared array %s has a non-positive extent" n;
            declare n (Shared_array (List.length dims))
        | Assign (Lvar v, e) ->
            (match Hashtbl.find_opt scope v with
            | Some (Scalar _) -> ()
            | Some _ -> err "array %s assigned as a scalar" v
            | None -> err "assignment to undeclared identifier %s" v);
            if thread_dependent !tainted e then tainted := v :: !tainted;
            check_expr e
        | Assign (Lindex (a, idxs), e) ->
            (match Hashtbl.find_opt scope a with
            | Some (Global_array writable) ->
                if not writable then err "const array %s is written" a;
                if List.length idxs <> 1 then
                  err "global array %s must use a single linearized index" a
            | Some (Shared_array rank) ->
                if List.length idxs <> rank then
                  err "shared array %s has rank %d but is written with %d subscripts" a rank
                    (List.length idxs)
            | Some (Scalar _) -> err "scalar %s is indexed in a write" a
            | None -> err "write to undeclared array %s" a);
            List.iter check_expr idxs;
            check_expr e
        | If (c, t, e) ->
            check_expr c;
            let div_here = divergent || thread_dependent !tainted c in
            if (not divergent) && div_here && (contains_barrier t || contains_barrier e) then
              err "__syncthreads() under thread-dependent conditional";
            check_stmts ~tainted:!tainted ~divergent:div_here t;
            check_stmts ~tainted:!tainted ~divergent:div_here e
        | For l ->
            check_expr l.lo;
            check_expr l.hi;
            if l.step <= 0 then err "loop %s has non-positive step %d" l.index l.step;
            (* the loop index scopes over its body only, but redeclaring an
               outer name is still a (shadowing) error in the subset *)
            declare l.index (Scalar Int);
            let trip_divergent =
              thread_dependent !tainted l.lo || thread_dependent !tainted l.hi
            in
            if (not divergent) && trip_divergent && contains_barrier l.body then
              err "__syncthreads() inside loop with thread-dependent trip count";
            let tainted' =
              if trip_divergent then l.index :: !tainted else !tainted
            in
            check_stmts ~tainted:tainted' ~divergent:(divergent || trip_divergent) l.body;
            Hashtbl.remove scope l.index
        | Syncthreads | Return -> ());
        current_loc := saved)
      stmts
  in
  check_stmts ~tainted:[] ~divergent:false k.k_body;
  dedupe (List.rev !errors)

let launch_args ~declared k args =
  if List.length k.k_params <> List.length args then
    [ Printf.sprintf "expects %d arguments, got %d" (List.length k.k_params) (List.length args) ]
  else
    List.concat
      (List.map2
         (fun param arg ->
           match (param, arg) with
           | Array_param _, Arg_array a ->
               if declared a then [] else [ Printf.sprintf "argument %s is not a declared device array" a ]
           | Array_param { name; _ }, (Arg_int _ | Arg_double _) ->
               [ Printf.sprintf "scalar passed for array parameter %s" name ]
           | Scalar_param { ty = Int; name }, a ->
               if (match a with Arg_int _ -> false | _ -> true) then
                 [ Printf.sprintf "parameter %s expects an int argument" name ]
               else []
           | Scalar_param { ty = Double; name }, a ->
               if (match a with Arg_double _ -> false | _ -> true) then
                 [ Printf.sprintf "parameter %s expects a double argument" name ]
               else []
           | Scalar_param { ty = Bool; name }, _ ->
               [ Printf.sprintf "bool parameter %s is not supported in launches" name ])
         k.k_params args)

let program (p : program) =
  let errors = ref [] in
  let err where fmt =
    Printf.ksprintf (fun what -> errors := { where; loc = Loc.none; what } :: !errors) fmt
  in
  (* uniqueness *)
  let seen = Hashtbl.create 32 in
  List.iter
    (fun k ->
      if Hashtbl.mem seen k.k_name then err p.p_name "kernel %s defined twice" k.k_name
      else Hashtbl.replace seen k.k_name ())
    p.p_kernels;
  let seen_arr = Hashtbl.create 32 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen_arr a.a_name then err p.p_name "array %s declared twice" a.a_name
      else Hashtbl.replace seen_arr a.a_name ();
      if List.exists (fun d -> d <= 0) a.a_dims then
        err p.p_name "array %s has a non-positive extent" a.a_name)
    p.p_arrays;
  (* kernel-local checks *)
  List.iter
    (fun (k : Ast.kernel) -> errors := List.rev_append (List.rev (kernel k)) !errors)
    p.p_kernels;
  (* launches *)
  List.iteri
    (fun i op ->
      match op with
      | Copy_to_device a | Copy_to_host a ->
          if not (Hashtbl.mem seen_arr a) then
            err (Printf.sprintf "memcpy #%d" i) "unknown array %s" a
      | Launch l -> (
          let where = Printf.sprintf "launch #%d (%s)" i l.l_kernel in
          match List.find_opt (fun k -> k.k_name = l.l_kernel) p.p_kernels with
          | None -> err where "launch of undefined kernel"
          | Some k ->
              List.iter (err where "%s") (launch_args ~declared:(Hashtbl.mem seen_arr) k l.l_args);
              let dx, dy, dz = l.l_domain and bx, by, bz = l.l_block in
              if dx <= 0 || dy <= 0 || dz <= 0 then err where "non-positive launch domain";
              if bx <= 0 || by <= 0 || bz <= 0 then err where "non-positive block";
              if bx * by * bz > 1024 then err where "block exceeds 1024 threads"))
    p.p_schedule;
  dedupe (List.rev !errors)
