open Kft_cuda.Ast

type part = {
  part_kernel : kernel;
  part_arrays : string list;
}

type plan = {
  original : kernel;
  parts : part list;
}

let fissionable k = List.length (Kft_analysis.Deps.separable_groups k) >= 2

(* deterministic LCG shuffle, mirroring Algorithm 2's random root picks *)
let shuffle seed l =
  let arr = Array.of_list l in
  let state = ref (seed land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  for i = Array.length arr - 1 downto 1 do
    let j = next () mod (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Scalar variables transitively needed to evaluate a set of statements:
   start from variables read by kept statements, then pull in the decls
   and scalar assignments defining them (walking backwards). *)
let used_vars_of_expr e =
  fold_expr (fun acc x -> match x with Var v -> v :: acc | _ -> acc) [] e

let rec prune_stmts keep_arrays needed stmts =
  (* process in reverse so that uses seen later mark earlier decls as needed *)
  let rev = List.rev stmts in
  let kept = ref [] in
  let needed = ref needed in
  let mark_expr e = needed := used_vars_of_expr e @ !needed in
  List.iter
    (fun s ->
      match s with
      | Assign (Lindex (a, idxs), e) ->
          if List.mem a keep_arrays then begin
            List.iter mark_expr idxs;
            mark_expr e;
            kept := s :: !kept
          end
      | Assign (Lvar v, e) ->
          if List.mem v !needed then begin
            mark_expr e;
            kept := s :: !kept
          end
      | Decl (_, v, init) ->
          if List.mem v !needed then begin
            (match init with Some e -> mark_expr e | None -> ());
            kept := s :: !kept
          end
      | Shared_decl (_, n, _) -> if List.mem n keep_arrays || List.mem n !needed then kept := s :: !kept
      | If (c, t, e) ->
          let t' = prune_stmts keep_arrays !needed t in
          let e' = prune_stmts keep_arrays !needed e in
          if t' <> [] || e' <> [] then begin
            mark_expr c;
            (* variables used inside the kept branches must be kept too *)
            needed := vars_used_in t' @ vars_used_in e' @ !needed;
            kept := If (c, t', e') :: !kept
          end
      | For l ->
          let body' = prune_stmts keep_arrays !needed l.body in
          if body' <> [] then begin
            mark_expr l.lo;
            mark_expr l.hi;
            needed := vars_used_in body' @ !needed;
            kept := For { l with body = body' } :: !kept
          end
      | Syncthreads -> kept := s :: !kept
      | Return -> kept := s :: !kept)
    rev;
  (* drop leading/trailing barriers that guard nothing *)
  !kept

and vars_used_in stmts = fold_exprs_in_stmts (fun acc e -> used_vars_of_expr e @ acc) [] stmts

(* remove barriers made redundant: a Syncthreads with no shared-memory
   statement somewhere before AND after it in the same block *)
let cleanup_barriers stmts =
  let touches_shared shared s =
    fold_stmts
      (fun acc s ->
        acc
        ||
        match s with
        | Assign (Lindex (a, _), _) when List.mem a shared -> true
        | Assign (_, e) | Decl (_, _, Some e) ->
            fold_expr
              (fun acc e -> acc || match e with Index (a, _) -> List.mem a shared | _ -> false)
              false e
        | _ -> false)
      false [ s ]
  in
  let shared =
    fold_stmts (fun acc s -> match s with Shared_decl (_, n, _) -> n :: acc | _ -> acc) [] stmts
  in
  let rec go before = function
    | [] -> []
    | Syncthreads :: rest ->
        let after_has = List.exists (touches_shared shared) rest in
        if before && after_has then Syncthreads :: go false rest else go before rest
    | s :: rest -> s :: go (before || touches_shared shared s) rest
  in
  let rec fix stmts =
    let stmts' =
      List.map
        (function
          | If (c, t, e) -> If (c, fix t, fix e)
          | For l -> For { l with body = fix l.body }
          | s -> s)
        stmts
    in
    go false stmts'
  in
  fix stmts

let part_of_group original idx group =
  let body = prune_stmts group [] original.k_body in
  let body = cleanup_barriers body in
  let used = vars_used_in body @ group in
  let arrays = Kft_cuda.Ast.arrays_read body @ Kft_cuda.Ast.arrays_written body in
  let params =
    List.filter
      (fun p ->
        match p with
        | Array_param { name; _ } -> List.mem name arrays
        | Scalar_param { name; _ } -> List.mem name used)
      original.k_params
  in
  {
    part_kernel =
      { k_name = Printf.sprintf "%s__f%d" original.k_name (idx + 1); k_params = params; k_body = body };
    part_arrays = group;
  }

let plan ?(seed = 1) k =
  let groups = Kft_analysis.Deps.separable_groups k in
  if List.length groups < 2 then None
  else
    let groups = shuffle seed groups in
    Some { original = k; parts = List.mapi (part_of_group k) groups }

let split_launch k plan (l : launch) =
  if l.l_kernel <> k.k_name || plan.original.k_name <> k.k_name then
    invalid_arg "Fission.split_launch: launch does not match plan";
  let binding = bind_args k l.l_args in
  List.map
    (fun part ->
      let args =
        List.map
          (fun p ->
            match List.assoc_opt (param_name p) binding with
            | Some a -> a
            | None -> invalid_arg ("Fission.split_launch: unbound param " ^ param_name p))
          part.part_kernel.k_params
      in
      { l_kernel = part.part_kernel.k_name; l_domain = l.l_domain; l_block = l.l_block; l_args = args })
    plan.parts

let name_clash prog p =
  List.find_map
    (fun part ->
      let name = part.part_kernel.k_name in
      if List.exists (fun k -> k.k_name = name) prog.p_kernels then Some name else None)
    p.parts

let apply_to_program ~plans prog =
  List.iter
    (fun (k, p) ->
      Option.iter
        (fun name ->
          invalid_arg
            (Printf.sprintf "Fission.apply_to_program: part %s of %s is already a kernel of %s"
               name k prog.p_name))
        (name_clash prog p))
    plans;
  let kernels =
    List.concat_map
      (fun k ->
        match List.assoc_opt k.k_name plans with
        | Some p -> List.map (fun part -> part.part_kernel) p.parts
        | None -> [ k ])
      prog.p_kernels
  in
  let schedule =
    List.concat_map
      (fun op ->
        match op with
        | Launch l -> (
            match List.assoc_opt l.l_kernel plans with
            | Some p -> List.map (fun l' -> Launch l') (split_launch (find_kernel prog l.l_kernel) p l)
            | None -> [ op ])
        | op -> [ op ])
      prog.p_schedule
  in
  { prog with p_kernels = kernels; p_schedule = schedule }

let iterate_plan ?(seed = 1) k =
  match plan ~seed k with
  | None -> None
  | Some p ->
      let rec expand part =
        match plan ~seed part.part_kernel with
        | None -> [ part ]
        | Some sub ->
            List.concat_map
              (fun sp -> expand { sp with part_arrays = sp.part_arrays })
              sub.parts
      in
      let parts = List.concat_map expand p.parts in
      (* renumber *)
      let parts =
        List.mapi
          (fun i part ->
            {
              part with
              part_kernel =
                { part.part_kernel with k_name = Printf.sprintf "%s__f%d" k.k_name (i + 1) };
            })
          parts
      in
      Some { original = k; parts }
