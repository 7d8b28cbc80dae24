(* Static analyses: stencil access recovery, cost estimation, array
   dependence (fission substrate), Roofline classification. *)

open Kft_cuda.Ast
module Access = Kft_analysis.Access
module Absint = Kft_analysis.Absint
module Canonical = Kft_codegen.Canonical
module Cost = Kft_analysis.Cost
module Deps = Kft_analysis.Deps
module Classify = Kft_analysis.Classify

let dims = (32, 16, 8)

let env_of prog name = Access.env_of_launch prog (Util.launch_of prog name)

let stencil_prog = Util.producer_consumer_program ~dims ()

let test_offsets_recovered () =
  let k = find_kernel stencil_prog "produce" in
  let info = Access.analyze k (env_of stencil_prog "produce") in
  let offs = Access.read_offsets info "A" in
  Alcotest.(check int) "six read offsets" 6 (List.length offs);
  Alcotest.(check bool) "has (1,0,0)" true (List.mem (1, 0, 0) offs);
  Alcotest.(check bool) "has (0,0,-1)" true (List.mem (0, 0, -1) offs);
  Alcotest.(check bool) "radius (1,1,1)" true (Access.stencil_radius info "A" = (1, 1, 1));
  Alcotest.(check (list string)) "writes" [ "B" ] (Access.writes_arrays info);
  Alcotest.(check (list string)) "reads" [ "A" ] (Access.reads_arrays info)

let test_vertical_loop () =
  let k = find_kernel stencil_prog "produce" in
  let info = Access.analyze k (env_of stencil_prog "produce") in
  match info.loops with
  | [ l ] ->
      Alcotest.(check bool) "vertical" true (l.dimension = `Vertical);
      Alcotest.(check int) "trip count" 6 l.trip_count
  | _ -> Alcotest.fail "expected one loop"

(* One kernel [g] over arrays A and B of [dims]: [decls] after the
   coordinates i and j, then [guard], then [loops] (headers, outermost
   first) around a store to B at (i, j, k). *)
let kernel_program ?(decls = "") ?(loops = [ "for (int k = 0; k < nz; k++)" ]) ~guard ~dims ~domain ~block () =
  let src =
    Printf.sprintf
      {|
__global__ void g(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  %s
  if (%s) {
    %s
      B[(k * ny + j) * nx + i] = c * A[(k * ny + j) * nx + i];
    %s
  }
}
|}
      decls guard
      (String.concat " " (List.map (Printf.sprintf "%s {") loops))
      (String.concat " " (List.map (fun _ -> "}") loops))
  in
  {
    p_name = "one-kernel";
    p_arrays = List.map (Util.arr3 dims) [ "A"; "B" ];
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      [ Launch { l_kernel = "g"; l_domain = domain; l_block = block; l_args = Util.std_args dims [ "A"; "B" ] 0.5 } ];
  }

(* the z coordinate of a 3-D launch *)
let z_coordinate = "int k = blockIdx.z * blockDim.z + threadIdx.z;"

let guard_coverage prog =
  let l = Util.launch_of prog "g" in
  (Access.analyze (find_kernel prog "g") (Access.env_of_launch prog l)).active_fraction

let test_active_fraction () =
  let k = find_kernel stencil_prog "produce" in
  let info = Access.analyze k (env_of stencil_prog "produce") in
  (* margin-1 guard on 32x16: (30*14)/(32*16) = 0.82 *)
  Util.check_float ~eps:1e-3 "guard coverage" (30.0 *. 14.0 /. 512.0) info.active_fraction;
  let k2 = find_kernel stencil_prog "consume" in
  let info2 = Access.analyze k2 (env_of stencil_prog "consume") in
  Util.check_float "unguarded interior" 1.0 info2.active_fraction;
  let rows =
    [
      (* a 3-D box over 2^18+ cells: counted, not sampled on three planes *)
      ( "3-D box on 64x64x72",
        kernel_program ~decls:z_coordinate ~loops:[] ~guard:"i < nx && j < ny && k >= 1 && k < nz - 1"
          ~dims:(64, 64, 72) ~domain:(64, 64, 72) ~block:(32, 4, 2) (),
        70.0 /. 72.0 );
      (* not a box: two coordinates in one conjunct *)
      ( "non-box guard i < j",
        kernel_program ~guard:"i < j && j < ny" ~dims:(64, 64, 4) ~domain:(64, 64, 1) ~block:(16, 4, 1) (),
        1.0 );
      ( "guard reading an array",
        kernel_program ~guard:"i < nx && A[j * nx + i] > 0.0" ~dims:(64, 16, 4) ~domain:(64, 16, 1)
          ~block:(16, 4, 1) (),
        1.0 );
    ]
  in
  List.iter (fun (what, prog, want) -> Util.check_float what want (guard_coverage prog)) rows

(* Random box guards: margins on each side of each axis, upper bounds
   past the domain, decided conjuncts, blocks that do not divide the
   domain, 3-D domains, and domains smaller than the arrays. The guard
   coverage is the per-cell count, bit for bit. *)
let box_guard_gen =
  let open QCheck.Gen in
  bool >>= fun threed ->
  triple (int_range 1 40) (int_range 1 12) (if threed then int_range 1 6 else return 1) >>= fun (dx, dy, dz) ->
  triple (int_range 0 3) (int_range 0 3) (int_range 0 2) >>= fun (px, py, pz) ->
  triple (oneofl [ 1; 3; 4; 8; 16; 32 ]) (oneofl [ 1; 2; 3; 4 ]) (if threed then oneofl [ 1; 2; 3 ] else return 1)
  >>= fun block ->
  let plus n m = if m >= 0 then Printf.sprintf "%s + %d" n m else Printf.sprintf "%s - %d" n (-m) in
  let axis (v, n) =
    let lower =
      int_range (-2) 3 >>= fun m ->
      oneofl
        [ Printf.sprintf "%s >= %d" v m; Printf.sprintf "%s > %d" v (m - 1); Printf.sprintf "-%s <= %d" v (-m);
          Printf.sprintf "%d <= %s" m v ]
    and upper =
      int_range (-3) 3 >>= fun m ->
      oneofl
        [ Printf.sprintf "%s < %s" v (plus n m); Printf.sprintf "%s <= %s" v (plus n (m - 1));
          Printf.sprintf "%s > %s" (plus n m) v; Printf.sprintf "-%s > -(%s)" v (plus n m);
          Printf.sprintf "%s == %d" v m ]
    in
    pair (opt lower) (opt upper) >|= fun (l, u) -> List.filter_map Fun.id [ l; u ]
  in
  let decided = frequency [ (4, oneofl [ "nx > 0"; "1"; "nz >= 1"; "i >= 0"; "i < nx + 3" ]); (1, oneofl [ "nx < 0"; "0" ]) ] in
  triple (axis ("i", "nx")) (axis ("j", "ny")) (if threed then axis ("k", "nz") else return []) >>= fun (ci, cj, ck) ->
  opt decided >>= fun d ->
  shuffle_l (ci @ cj @ ck @ Option.to_list d) >|= fun conj ->
  let guard = if conj = [] then "1" else String.concat " && " conj in
  let decls, loops = if threed then (z_coordinate, []) else ("", [ "for (int k = 0; k < nz; k++)" ]) in
  kernel_program ~decls ~loops ~guard ~dims:(dx + px, dy + py, dz + pz) ~domain:(dx, dy, dz) ~block ()

let prop_guard_coverage_exact =
  QCheck.Test.make ~name:"guard coverage is the per-cell count" ~count:300
    (QCheck.make ~print:Kft_cuda.Pp.program box_guard_gen)
    (fun prog ->
      Int64.equal
        (Int64.bits_of_float (guard_coverage prog))
        (Int64.bits_of_float (Util.guard_fraction prog (Util.launch_of prog "g"))))

(* Every launch of the seven programs, their fission pre-runs and their
   transforms: each guard is a box, so the coverage is the per-cell
   count. A guard that is not a box fails here rather than reading 1.0. *)
let test_bundled_guard_coverage () =
  let module F = Kft_framework.Framework in
  let config = { F.default_config with gga_params = { Kft_gga.Gga.default_params with population = 10; generations = 8 } } in
  let compared = ref 0 in
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      let r = F.transform ~config a.program in
      List.iter
        (fun prog ->
          List.iter
            (function
              | Launch l -> (
                  match Access.analyze_result (find_kernel prog l.l_kernel) (Access.env_of_launch prog l) with
                  | Ok info ->
                      incr compared;
                      Alcotest.(check (float 0.0))
                        (Printf.sprintf "%s %s" prog.p_name l.l_kernel)
                        (Util.guard_fraction prog l) info.active_fraction
                  | Error _ -> ())
              | _ -> ())
            prog.p_schedule)
        [ a.program; Kft_fission.Fission.apply_to_program ~plans:r.fission_plans a.program; r.transformed ])
    (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ());
  Alcotest.(check bool) "launches compared" true (!compared > 300)

let test_nest_depth () =
  let d = { Kft_apps.Gen.nx = 16; ny = 8; nz = 8 } in
  let b = Kft_apps.Gen.deep_nest d ~name:"deep" ~out:"O" ~band_in:"A" ~plane_ins:[ "P" ] () in
  let prog =
    { p_name = "t"; p_arrays = b.arrays; p_kernels = [ b.kernel ]; p_schedule = [ Launch b.launch ] }
  in
  let info = Access.analyze b.kernel (env_of prog "deep") in
  Alcotest.(check int) "depth 2" 2 info.max_nest_depth

let test_irregular_mutated_index () =
  let src =
    {|
__global__ void bad(const double *A, double *B, int nx, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int h = i;
  h = h * 7;
  if (i < nx) { B[h] = c * A[i]; }
}
|}
  in
  let k = Kft_cuda.Parse.kernel src in
  let prog =
    {
      p_name = "t";
      p_arrays = [ { a_name = "A"; a_elem_ty = Double; a_dims = [ 64 ] };
                   { a_name = "B"; a_elem_ty = Double; a_dims = [ 64 ] } ];
      p_kernels = [ k ];
      p_schedule =
        [ Launch { l_kernel = "bad"; l_domain = (8, 1, 1); l_block = (8, 1, 1);
                   l_args = [ Arg_array "A"; Arg_array "B"; Arg_int 8; Arg_double 1.0 ] } ];
    }
  in
  match Access.analyze_result k (env_of prog "bad") with
  | Error (Access.Mutated_index_variable "h") -> ()
  | Error r -> Alcotest.fail ("wrong reason: " ^ Access.reason_to_string r)
  | Ok _ -> Alcotest.fail "expected irregular"

let test_irregular_nonaffine () =
  let src =
    {|
__global__ void sq(const double *A, double *B, int nx, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < nx) { B[i * i] = c * A[i]; }
}
|}
  in
  let k = Kft_cuda.Parse.kernel src in
  let prog =
    {
      p_name = "t";
      p_arrays = [ { a_name = "A"; a_elem_ty = Double; a_dims = [ 64 ] };
                   { a_name = "B"; a_elem_ty = Double; a_dims = [ 64 ] } ];
      p_kernels = [ k ];
      p_schedule =
        [ Launch { l_kernel = "sq"; l_domain = (8, 1, 1); l_block = (8, 1, 1);
                   l_args = [ Arg_array "A"; Arg_array "B"; Arg_int 8; Arg_double 1.0 ] } ];
    }
  in
  match Access.analyze_result k (env_of prog "sq") with
  | Error (Access.Non_affine_index _) -> ()
  | Error r -> Alcotest.fail ("wrong reason: " ^ Access.reason_to_string r)
  | Ok _ -> Alcotest.fail "expected non-affine"

let test_specialize_inlines () =
  let k = find_kernel stencil_prog "produce" in
  let body = Access.specialize (env_of stencil_prog "produce") k in
  (* int decls are inlined away; no more references to nx/ny/nz params *)
  let has_int_decl =
    fold_stmts (fun acc s -> acc || match s with Decl (Int, _, _) -> true | _ -> false) false body
  in
  Alcotest.(check bool) "int decls gone" false has_int_decl;
  let refs_params =
    fold_exprs_in_stmts
      (fun acc e ->
        acc || fold_expr (fun a e -> a || e = Var "nx" || e = Var "ny" || e = Var "nz") false e)
      false body
  in
  Alcotest.(check bool) "dimension params folded" false refs_params

let test_affine_of_expr () =
  let parse = Kft_cuda.Parse.expr in
  let check what ?launch ~vars e expected =
    let got =
      Option.map
        (fun (cs, c) -> (List.sort compare cs, c))
        (Absint.affine_of_expr ?launch ~vars (parse e))
    in
    Alcotest.(check (option (pair (list (pair string int)) int))) what expected got
  in
  check "global x coordinate" ~launch:((16, 4, 1), (2, 4, 1)) ~vars:[]
    "blockIdx.x * 16 + threadIdx.x" (Some ([ ("gx", 1) ], 0));
  check "grid of one block" ~launch:((64, 1, 1), (1, 1, 1)) ~vars:[]
    "blockIdx.x * 64 + threadIdx.x" (Some ([ ("gx", 1) ], 0));
  check "thread id alone is not a global coordinate" ~launch:((16, 4, 1), (2, 4, 1)) ~vars:[]
    "threadIdx.x" None;
  check "builtin without a launch" ~vars:[] "threadIdx.x + 1" None;
  check "clamp" ~vars:[ "i" ] "min(i + 1, 63)" None;
  check "conditional" ~vars:[ "i" ] "i < 63 ? i + 1 : i" None

(* An index clamped at the array's edge, by [min] or by a ternary, looks
   linear near thread 0 but is not affine: it is no stencil offset, and
   must not be rewritten into one. *)
let clamp_program clamp =
  let dims = (64, 16, 4) in
  let nx, ny, _ = dims in
  let src =
    Printf.sprintf
      {|
__global__ void clampk(const double *U, double *V, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      V[(k * ny + j) * nx + i] = c * U[(k * ny + j) * nx + %s];
    }
  }
}
|}
      clamp
    ^ Util.pointwise_src ~name:"usev" ~a:"V" ~b:"U" ~dst:"W"
  in
  let launch k args =
    Launch { l_kernel = k; l_domain = (nx, ny, 1); l_block = (16, 4, 1); l_args = Util.std_args dims args 0.5 }
  in
  {
    p_name = "clamped";
    p_arrays = List.map (Util.arr3 dims) [ "U"; "V"; "W" ];
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule = [ launch "clampk" [ "U"; "V" ]; launch "usev" [ "V"; "U"; "W" ] ];
  }

let test_clamped_index_not_affine () =
  let module F = Kft_framework.Framework in
  List.iter
    (fun clamp ->
      let prog = clamp_program clamp in
      let l = Util.launch_of prog "clampk" in
      (match Access.analyze_result (find_kernel prog "clampk") (Access.env_of_launch prog l) with
      | Error (Access.Non_affine_index "U") -> ()
      | Error r -> Alcotest.failf "%s: wrong reason: %s" clamp (Access.reason_to_string r)
      | Ok info ->
          Alcotest.failf "%s: read as offsets %s" clamp
            (String.concat " "
               (List.map (fun (x, y, z) -> Printf.sprintf "(%d,%d,%d)" x y z) (Access.read_offsets info "U"))));
      (match Canonical.extract ~deep:`Sequential ~index:0 prog l with
      | exception Canonical.Not_canonical _ -> ()
      | _ -> Alcotest.failf "%s: canonicalized" clamp);
      let config =
        {
          F.default_config with
          gga_params = { Kft_gga.Gga.default_params with generations = 10; population = 12 };
        }
      in
      let r = F.transform ~config prog in
      Alcotest.(check bool)
        (clamp ^ ": clampk unfused") true
        (List.mem [ "clampk" ] r.solution_groups
        || not (List.exists (List.mem "clampk") r.solution_groups));
      Alcotest.(check bool) (clamp ^ ": clampk still launched") true
        (List.exists (function Launch l -> l.l_kernel = "clampk" | _ -> false) r.transformed.p_schedule);
      Alcotest.(check bool) (clamp ^ ": output verified") true (r.verified = Ok ()))
    [ "min(i + 1, nx - 1)"; "(i < nx - 1 ? i + 1 : i)" ]

(* Access and Canonical split an index's constant the same way: on every
   launch both accept, each host array has the same read and the same
   write offsets under both (accesses Canonical marks as swept by a
   non-canonical loop excepted). *)
let test_access_canonical_agree () =
  let programs = List.map (fun (a : Kft_apps.Apps.app) -> a.program) (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ()) in
  let compared = ref 0 in
  List.iter
    (fun prog ->
      List.iter
        (function
          | Launch l -> (
              let env = Access.env_of_launch prog l in
              match
                ( Access.analyze_result (find_kernel prog l.l_kernel) env,
                  Canonical.extract ~deep:`Sequential ~index:0 prog l )
              with
              | Ok info, m ->
                  let host p = List.assoc p env.param_binding in
                  let access_offsets rw h =
                    List.filter_map
                      (fun (a : Access.access) -> if a.rw = rw && host a.array = h then Some a.offset else None)
                      info.accesses
                    |> List.sort_uniq compare
                  in
                  let wild (x, y, z) = List.mem Canonical.wild_offset [ x; y; z ] in
                  List.iter
                    (fun h ->
                      List.iter
                        (fun (rw, canon) ->
                          if not (List.exists wild canon) then begin
                            incr compared;
                            Alcotest.(check (list (triple int int int)))
                              (Printf.sprintf "%s %s %s" prog.p_name l.l_kernel h)
                              canon (access_offsets rw h)
                          end)
                        [ (Access.Read, Canonical.reads_of m h); (Access.Write, Canonical.writes_of m h) ])
                    (Canonical.touched_arrays m)
              | Error _, _ | (exception Canonical.Not_canonical _) -> ())
          | _ -> ())
        prog.p_schedule)
    programs;
  Alcotest.(check bool) "launches compared" true (!compared > 100)

let test_cost_counts () =
  let k = find_kernel stencil_prog "consume" in
  let c = Cost.of_kernel k (env_of stencil_prog "consume") in
  (* consume: per k-iteration, one add + one mul = 2 flops, 2 reads, 1 write; nz = 8 *)
  Util.check_float "flops" (2.0 *. 8.0) c.flops_per_thread;
  Util.check_float "reads" (2.0 *. 8.0) c.global_reads_per_thread;
  Util.check_float "writes" 8.0 c.global_writes_per_thread

(* Loop-bound folding, one row per bound shape: Cost's trip count (the
   kernel stores once per iteration, so it is the per-thread write count)
   and Canonical's vertical-loop bounds, at nx = 16, ny = 8, nz = 12.
   Cost reads the unspecialized body with the int arguments bound and
   each enclosing loop index at 0; an unfoldable bound costs one trip.
   Canonical reads the specialized body, int declarations inlined. *)
let test_loop_bound_folding () =
  let k_loop lo hi = [ Printf.sprintf "for (int k = %s; k < %s; k++)" lo hi ] in
  let not_constant = Error "loop bound is not a launch constant" in
  let rows =
    [
      ("literal arithmetic", "", k_loop "1 + 1" "2 * 3 + 4", 8, Some (Ok (2, 10)));
      ("int parameter", "", k_loop "1" "nz - 1", 10, Some (Ok (1, 11)));
      ("min", "", k_loop "0" "min(12, 8)", 8, Some (Ok (0, 8)));
      ("max", "", k_loop "max(nz - 20, 1)" "nz", 11, Some (Ok (1, 12)));
      ("abs", "", k_loop "abs(3 - 5)" "nz", 10, Some (Ok (2, 12)));
      ("inexact division", "", k_loop "0" "(nz + 1) / 2", 6, Some (Ok (0, 6)));
      ("negative inexact division", "", k_loop "-7 / 2" "1", 4, Some (Ok (-3, 1)));
      ("% of constants", "", k_loop "0" "29 % 8", 5, Some (Ok (0, 5)));
      ("% of a parameter", "", k_loop "nz % 5" "nz", 10, Some (Ok (2, 12)));
      ("ternary", "", k_loop "0" "nz > 8 ? 9 : 7", 9, Some (Ok (0, 9)));
      (* Cost sees [kmax] unbound; Canonical sees it inlined *)
      ("int declaration", "int kmax = nz - 1;", k_loop "0" "kmax", 1, Some (Ok (0, 11)));
      ( "enclosing loop index",
        "",
        "for (int r = 2; r < 5; r++)" :: k_loop "r" "r + 4",
        (* 3 outer trips, the inner one counted at r = 0 *)
        12,
        None );
      ("array read", "", k_loop "0" "A[0]", 1, Some not_constant);
      ("division by zero", "", k_loop "0" "nz / 0", 1, Some not_constant);
    ]
  in
  List.iter
    (fun (what, decls, loops, trips, canonical) ->
      let prog =
        kernel_program ~decls ~loops ~guard:"i < nx && j < ny" ~dims:(16, 8, 12) ~domain:(16, 8, 1)
          ~block:(16, 4, 1) ()
      in
      let l = Util.launch_of prog "g" in
      let c = Cost.of_kernel (find_kernel prog "g") (Access.env_of_launch prog l) in
      Util.check_float (what ^ ": Cost trips") (float_of_int trips) c.global_writes_per_thread;
      let got =
        match Canonical.extract ~deep:`Sequential ~index:0 prog l with
        | m -> Option.to_result ~none:"no vertical loop" m.m_kloop
        | exception Canonical.Not_canonical why -> Error why
      in
      match (canonical, got) with
      | None, _ -> ()
      | Some (Ok b), _ -> Alcotest.(check (result (pair int int) string)) (what ^ ": Canonical bounds") (Ok b) got
      | Some (Error prefix), Error why when Util.contains why prefix -> ()
      | Some (Error prefix), _ -> Alcotest.failf "%s: expected Canonical failure %S" what prefix)
    rows

let test_registers_bounded () =
  List.iter
    (fun k ->
      let r = Cost.estimate_registers k in
      Alcotest.(check bool) "regs in range" true (r >= 18 && r <= 128))
    stencil_prog.p_kernels

let test_dependent_chain () =
  let b = Kft_apps.Gen.latency_bound ~cells:64 ~name:"lat" ~out:"O" ~src:"I" ~hash_rounds:10 () in
  let prog =
    { p_name = "t"; p_arrays = b.arrays; p_kernels = [ b.kernel ]; p_schedule = [ Launch b.launch ] }
  in
  let c = Cost.of_kernel b.kernel (env_of prog "lat") in
  Alcotest.(check bool) "long chain" true (c.dependent_chain > 50);
  let k = find_kernel stencil_prog "consume" in
  let c2 = Cost.of_kernel k (env_of stencil_prog "consume") in
  Alcotest.(check bool) "short chain" true (c2.dependent_chain < 20)

let test_separable_groups () =
  (* B = f(A); D = g(C): two separable groups *)
  let src =
    Util.pointwise_src ~name:"two" ~a:"A" ~b:"A" ~dst:"B"
  in
  let k = Kft_cuda.Parse.kernel src in
  (* build a two-output kernel via the generator instead *)
  ignore k;
  let d = { Kft_apps.Gen.nx = 8; ny = 4; nz = 4 } in
  let b =
    Kft_apps.Gen.multi_output d ~name:"mo"
      ~groups:[ ("B", [ "A" ], [ (0, 0, 0) ]); ("D", [ "C" ], [ (0, 0, 0) ]) ]
      ()
  in
  let groups = Deps.separable_groups b.kernel in
  Alcotest.(check int) "two components" 2 (List.length groups);
  let flat = List.sort compare (List.concat groups) in
  Alcotest.(check (list string)) "covers arrays" [ "A"; "B"; "C"; "D" ] flat

let test_wide_kernel_edges () =
  (* a wide kernel: one output whose write reads from 60 input arrays.
     Pins the set-backed edge accumulator: exactly one (sorted) edge per
     distinct pair, no duplicates, single dependence component. *)
  let n = 60 in
  let inputs = List.init n (fun i -> Printf.sprintf "A%02d" i) in
  let rhs =
    List.fold_left
      (fun acc a -> Binop (Add, acc, Index (a, [ Var "i" ])))
      (Double_lit 0.0)
      inputs
  in
  let params =
    List.map (fun a -> Array_param { name = a; elem_ty = Double; quals = [ Const ] }) inputs
    @ [
        Array_param { name = "OUT"; elem_ty = Double; quals = [] };
        Scalar_param { name = "nx"; ty = Int };
      ]
  in
  let body =
    [
      Decl (Int, "i", Some (Binop (Add, Binop (Mul, Builtin (Block_idx X), Builtin (Block_dim X)), Builtin (Thread_idx X))));
      If (Binop (Lt, Var "i", Var "nx"), [ Assign (Lindex ("OUT", [ Var "i" ]), rhs) ], []);
    ]
  in
  let k = { k_name = "wide"; k_params = params; k_body = body } in
  let edges = Deps.array_dependence_edges k in
  Alcotest.(check int) "one edge per input" n (List.length edges);
  Alcotest.(check (list (pair string string)))
    "edges are sorted, deduped, canonical"
    (List.sort compare (List.map (fun a -> (a, "OUT")) inputs))
    edges;
  Alcotest.(check int) "single component" 1 (List.length (Deps.separable_groups k))

let test_not_separable_via_temp () =
  (* a scalar temp links the two outputs: t = f(A); B = t; D = t + C *)
  let src =
    {|
__global__ void linked(const double *A, const double *C, double *B, double *D, int nx, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < nx) {
    double t = c * A[i];
    B[i] = t;
    D[i] = t + C[i];
  }
}
|}
  in
  let k = Kft_cuda.Parse.kernel src in
  Alcotest.(check int) "single component" 1 (List.length (Deps.separable_groups k));
  Alcotest.(check bool) "not fissionable" false (Kft_fission.Fission.fissionable k)

let test_classify_roofline () =
  let d = Util.device in
  let mk flops bytes =
    Classify.classify_static ~device:d ~flops ~bytes ~domain_cells:1000 ~max_array_cells:1000
      ~active_fraction:1.0
  in
  Alcotest.(check bool) "memory bound" true (mk 100.0 1000.0 = Classify.Memory_bound);
  Alcotest.(check bool) "compute bound" true (mk 100000.0 1000.0 = Classify.Compute_bound)

let test_classify_boundary () =
  let d = Util.device in
  let k =
    Classify.classify_static ~device:d ~flops:10.0 ~bytes:1000.0 ~domain_cells:50
      ~max_array_cells:1000 ~active_fraction:1.0
  in
  Alcotest.(check bool) "boundary" true (k = Classify.Boundary)

let test_classify_latency () =
  let d = Util.device in
  (* low achieved bandwidth and low achieved flops *)
  let k =
    Classify.classify_measured ~device:d ~flops:100.0 ~bytes:1000.0 ~domain_cells:1000
      ~max_array_cells:1000 ~active_fraction:1.0 ~runtime_us:10.0
  in
  Alcotest.(check bool) "latency bound (measured)" true (k = Classify.Latency_bound);
  (* the static filter cannot see it *)
  let k' =
    Classify.classify_static ~device:d ~flops:100.0 ~bytes:1000.0 ~domain_cells:1000
      ~max_array_cells:1000 ~active_fraction:1.0
  in
  Alcotest.(check bool) "static says memory-bound" true (k' = Classify.Memory_bound)

(* property: decomposed offsets reconstruct the linear index *)
let prop_offset_reconstruction =
  QCheck.Test.make ~name:"canonical index recovers offsets" ~count:200
    QCheck.(triple (int_range (-2) 2) (int_range (-2) 2) (int_range (-2) 2))
    (fun (dx, dy, dz) ->
      let nx, ny, nz = (32, 16, 8) in
      ignore nz;
      let src =
        Printf.sprintf
          {|
__global__ void probe(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 2 && i < nx - 2 && j >= 2 && j < ny - 2) {
    for (int k = 2; k < nz - 2; k++) {
      B[(k * ny + j) * nx + i] = c * A[((k + %d) * ny + (j + %d)) * nx + i + %d];
    }
  }
}
|}
          dz dy dx
      in
      let k = Kft_cuda.Parse.kernel src in
      let prog =
        {
          p_name = "t";
          p_arrays = [ Util.arr3 (nx, ny, 8) "A"; Util.arr3 (nx, ny, 8) "B" ];
          p_kernels = [ k ];
          p_schedule =
            [ Launch { l_kernel = "probe"; l_domain = (nx, ny, 1); l_block = (16, 8, 1);
                       l_args = Util.std_args (nx, ny, 8) [ "A"; "B" ] 1.0 } ];
        }
      in
      let info = Access.analyze k (env_of prog "probe") in
      Access.read_offsets info "A" = [ (dx, dy, dz) ])

let suite =
  [
    Alcotest.test_case "stencil offsets recovered" `Quick test_offsets_recovered;
    Alcotest.test_case "vertical loop detected" `Quick test_vertical_loop;
    Alcotest.test_case "active fraction" `Quick test_active_fraction;
    Alcotest.test_case "nest depth" `Quick test_nest_depth;
    Alcotest.test_case "mutated index rejected" `Quick test_irregular_mutated_index;
    Alcotest.test_case "non-affine rejected" `Quick test_irregular_nonaffine;
    Alcotest.test_case "specialization inlines ints" `Quick test_specialize_inlines;
    Alcotest.test_case "affine_of_expr" `Quick test_affine_of_expr;
    Alcotest.test_case "clamped index is not affine" `Quick test_clamped_index_not_affine;
    Alcotest.test_case "Access and Canonical offsets agree" `Quick test_access_canonical_agree;
    Alcotest.test_case "cost counting" `Quick test_cost_counts;
    Alcotest.test_case "loop-bound folding" `Quick test_loop_bound_folding;
    Alcotest.test_case "register estimate bounded" `Quick test_registers_bounded;
    Alcotest.test_case "dependent chain" `Quick test_dependent_chain;
    Alcotest.test_case "separable groups" `Quick test_separable_groups;
    Alcotest.test_case "temp links groups" `Quick test_not_separable_via_temp;
    Alcotest.test_case "wide kernel: deduped dependence edges" `Quick test_wide_kernel_edges;
    Alcotest.test_case "roofline classification" `Quick test_classify_roofline;
    Alcotest.test_case "boundary classification" `Quick test_classify_boundary;
    Alcotest.test_case "latency classification" `Quick test_classify_latency;
    Alcotest.test_case "guard coverage of the bundled programs" `Quick test_bundled_guard_coverage;
    QCheck_alcotest.to_alcotest prop_offset_reconstruction;
    QCheck_alcotest.to_alcotest prop_guard_coverage_exact;
  ]
