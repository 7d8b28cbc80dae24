(* kft_verify: static race / barrier / bounds verification and
   translation validation.

   Negative fixtures are written as CUDA text and parsed, so the
   diagnostics also exercise the source-position plumbing (satellite of
   the same PR): a defect must be reported with the kernel name and a
   real line/column. *)

open Kft_cuda.Ast
module V = Kft_verify.Verify
module F = Kft_framework.Framework
module Absint = Kft_analysis.Absint

let dims = (32, 8, 4)

let program_of ?(dims = dims) ?(block = (16, 4, 1)) ~arrays ~src launches =
  let nx, ny, nz = dims in
  {
    p_name = "fixture";
    p_arrays =
      List.map (fun a -> { a_name = a; a_elem_ty = Double; a_dims = [ nx; ny; nz ] }) arrays;
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      List.map
        (fun (kernel, args) ->
          Launch { l_kernel = kernel; l_domain = (nx, ny, 1); l_block = block; l_args = args })
        launches;
  }

let has_pass pass (r : V.report) =
  List.exists (fun (d : V.diagnostic) -> d.d_pass = pass) r.diagnostics

let diag_of pass (r : V.report) =
  List.find (fun (d : V.diagnostic) -> d.d_pass = pass) r.diagnostics

(* ------------------------------------------------------------------ *)
(* negative fixtures                                                   *)
(* ------------------------------------------------------------------ *)

let test_shared_race () =
  (* every thread of a row writes s[ty][0]: intra-interval WW race *)
  let src =
    {|
__global__ void collide(const double *A, double *B, int nx, int ny) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int gi = blockIdx.x * blockDim.x + tx;
  int gj = blockIdx.y * blockDim.y + ty;
  __shared__ double s[4][16];
  s[ty][0] = A[gj * nx + gi];
  __syncthreads();
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = s[ty][0];
  }
}
|}
  in
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("collide", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check bool) "race reported" true (has_pass V.Race r);
  let d = diag_of V.Race r in
  Alcotest.(check string) "kernel named" "collide" d.d_kernel;
  Alcotest.(check bool) "carries a source line" true (d.d_loc.line > 0);
  Alcotest.(check bool) "names the tile" true
    (let open String in
     length d.d_message > 0 && d.d_stmt <> "")

(* One launch per kernel, each with a barrier that may diverge within a
   block; [at] starts the line the finding must point at.  Each must be
   rejected before the simulator runs: it raises [Sim_error] on all but
   the early return. *)
let divergent_barriers =
  [
    ("direct", "if (tx < 8)", {|
  if (tx < 8) {
    __syncthreads();
  }|});
    ("assigned under a condition", "if (t > 0)", {|
  if (threadIdx.x < 8) {
    t = 1;
  }
  if (t > 0) {
    __syncthreads();
  }|});
    ("early return", "if (threadIdx.x >= 8)", {|
  if (threadIdx.x >= 8) {
    return;
  }
  __syncthreads();|});
    ("assigned in a thread-dependent loop", "if (t > 0)", {|
  for (int m = 0; m < threadIdx.x; m++) {
    t = 1;
  }
  if (t > 0) {
    __syncthreads();
  }|});
    ("loop-carried", "if (t > 0)", {|
  for (int m = 0; m < 2; m++) {
    if (t > 0) {
      __syncthreads();
    }
    t = threadIdx.x;
  }|});
    ("early return before the next iteration's barrier", "if (tx >= 8)", {|
  for (int m = 0; m < 2; m++) {
    __syncthreads();
    if (tx >= 8) {
      return;
    }
  }|});
  ]

(* the [divergent_barriers] kernel around [body] *)
let divb_src body =
  Printf.sprintf
    {|
__global__ void divb(double *B, int nx, int ny) {
  int tx = threadIdx.x;
  int gi = blockIdx.x * blockDim.x + tx;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  int t = 0;%s
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = 1.0;
  }
}
|}
    body

let divb_program src =
  program_of ~dims:(64, 16, 1) ~block:(16, 8, 1) ~arrays:[ "B" ] ~src
    [ ("divb", [ Arg_array "B"; Arg_int 64; Arg_int 16 ]) ]

let test_divergent_barrier () =
  List.iter
    (fun (name, at, body) ->
      let src = divb_src body in
      let line =
        let rec find i = function
          | [] -> Alcotest.failf "%s: no line starts with %s" name at
          | l :: rest -> if String.starts_with ~prefix:at (String.trim l) then i else find (i + 1) rest
        in
        find 1 (String.split_on_char '\n' src)
      in
      let prog = divb_program src in
      let errs = Kft_cuda.Check.kernel (List.hd prog.p_kernels) in
      Alcotest.(check (list int)) (name ^ ": Check.kernel rejects it at the line") [ line ]
        (List.map (fun (e : Kft_cuda.Check.error) -> e.loc.line) errs);
      let r = V.verify_program prog in
      Alcotest.(check (list (pair string int))) (name ^ ": one barrier diagnostic at the line")
        [ ("divb", line) ]
        (List.filter_map
           (fun (d : V.diagnostic) -> if d.d_pass = V.Barrier then Some (d.d_kernel, d.d_loc.line) else None)
           r.diagnostics);
      match F.transform prog with
      | _ -> Alcotest.failf "%s: Framework.transform accepted it" name
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (name ^ ": the error names the line") true
            (Util.contains msg (Printf.sprintf "divb:%d:" line)))
    divergent_barriers

(* Threads that return after the last barrier can no longer miss one:
   the usual tile-load, sync, early-exit shape is valid CUDA. *)
let test_return_after_last_barrier () =
  List.iter
    (fun (name, body) ->
      let prog = divb_program (divb_src body) in
      Alcotest.(check (list string)) (name ^ ": Check.kernel accepts it") []
        (List.map Kft_cuda.Check.pp_error (Kft_cuda.Check.kernel (List.hd prog.p_kernels)));
      Alcotest.(check bool) (name ^ ": no barrier diagnostic") false
        (has_pass V.Barrier (V.verify_program prog));
      Alcotest.(check bool) (name ^ ": transformed and verified") true
        ((F.transform prog).verified = Ok ()))
    [
      ("after a barrier", {|
  __syncthreads();
  if (tx >= 8) {
    return;
  }|});
      ("after a loop of barriers", {|
  for (int m = 0; m < 2; m++) {
    __syncthreads();
  }
  if (tx >= 8) {
    return;
  }|});
    ]

let test_oob_halo () =
  (* unguarded left-halo read: thread (0,_) of block (0,_) reads A[-1] *)
  let src =
    {|
__global__ void oob(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = A[gj * nx + gi - 1];
  }
}
|}
  in
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("oob", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check bool) "bounds violation reported" true (has_pass V.Bounds r);
  let d = diag_of V.Bounds r in
  Alcotest.(check string) "kernel named" "oob" d.d_kernel;
  Alcotest.(check bool) "carries a source line" true (d.d_loc.line > 0);
  Alcotest.(check bool) "message names the array" true
    (let rec contains i =
       i + 1 <= String.length d.d_message && (String.sub d.d_message i 1 = "A" || contains (i + 1))
     in
     contains 0)

(* producer/consumer fused in the wrong member order: check_group
   accepts it (origin-only WAR), but the member order contradicts the
   source DDG *)
let reversed_fusion () =
  let src =
    String.concat "\n"
      [
        Util.pointwise_src ~name:"produce" ~a:"A" ~b:"A" ~dst:"V";
        Util.pointwise_src ~name:"consume" ~a:"V" ~b:"V" ~dst:"W";
      ]
  in
  let nx, ny, nz = dims in
  let args arrays = Util.std_args (nx, ny, nz) arrays 0.5 in
  let prog =
    program_of ~arrays:[ "A"; "V"; "W" ] ~src
      [ ("produce", args [ "A"; "A"; "V" ]); ("consume", args [ "V"; "V"; "W" ]) ]
  in
  let launches =
    List.filter_map (function Launch l -> Some l | _ -> None) prog.p_schedule
  in
  let reversed = [ List.rev launches ] in
  (prog, Kft_codegen.Codegen.transform Util.device prog ~groups:reversed)

(* translation validation must reject the reversed fusion *)
let test_order_violation () =
  let prog, res = reversed_fusion () in
  let fused =
    List.exists
      (fun (r : Kft_codegen.Codegen.kernel_report) -> r.fusion_kind <> `None)
      res.reports
  in
  Alcotest.(check bool) "the reversed group does fuse" true fused;
  let r = V.validate ~source:prog res in
  Alcotest.(check bool) "order violation reported" true (has_pass V.Translation r);
  let d = diag_of V.Translation r in
  Alcotest.(check bool) "diagnostic names the fused kernel" true
    (String.length d.d_kernel > 0 && d.d_kernel <> "produce" && d.d_kernel <> "consume")

(* a caller that already analysed the source passes that analysis in;
   the report is the one [validate] computes on its own *)
let test_validate_source_flow () =
  let prog, res = reversed_fusion () in
  let own = V.validate ~source:prog res in
  let given = V.validate ~source_flow:(Kft_schedflow.Schedflow.analyze prog) ~source:prog res in
  Alcotest.(check bool) "a translation diagnostic" true (has_pass V.Translation own);
  Alcotest.(check bool) "same report" true (own = given)

(* [produce] and [consume] share no array: [consume] depends on
   [produce] only through [middle], which stays outside their fused
   group.  Fused in the wrong order, the group breaks a direct
   dependence on one side of [middle] wherever [middle] is placed. *)
let test_transitive_order_violation () =
  let src =
    String.concat "\n"
      [
        Util.pointwise_src ~name:"produce" ~a:"A" ~b:"A" ~dst:"V";
        Util.pointwise_src ~name:"middle" ~a:"V" ~b:"V" ~dst:"W";
        Util.pointwise_src ~name:"consume" ~a:"W" ~b:"W" ~dst:"X";
      ]
  in
  let nx, ny, nz = dims in
  let args arrays = Util.std_args (nx, ny, nz) arrays 0.5 in
  let prog =
    program_of ~arrays:[ "A"; "V"; "W"; "X" ] ~src
      [
        ("produce", args [ "A"; "A"; "V" ]);
        ("middle", args [ "V"; "V"; "W" ]);
        ("consume", args [ "W"; "W"; "X" ]);
      ]
  in
  let launch name =
    List.find_map (function Launch l when l.l_kernel = name -> Some l | _ -> None) prog.p_schedule
    |> Option.get
  in
  List.iter
    (fun groups ->
      let res = Kft_codegen.Codegen.transform Util.device prog ~groups:(List.map (List.map launch) groups) in
      Alcotest.(check bool) "the reversed pair does fuse" true
        (List.exists
           (fun (r : Kft_codegen.Codegen.kernel_report) ->
             r.fusion_kind <> `None && r.members = [ "consume"; "produce" ])
           res.reports);
      let r = V.validate ~source:prog res in
      Alcotest.(check bool) "a broken dependence is reported" true
        (List.exists
           (fun (d : V.diagnostic) ->
             d.d_pass = V.Schedule && Util.contains d.d_message "reorders a source dependence")
           r.diagnostics);
      (* a fatal gate splits the fused kernels a diagnostic names *)
      let fused =
        List.find (fun (r : Kft_codegen.Codegen.kernel_report) -> r.fusion_kind <> `None) res.reports
      in
      Alcotest.(check bool) "the fused kernel is named" true
        (List.exists
           (fun (d : V.diagnostic) -> d.d_pass = V.Translation && d.d_kernel = fused.new_kernel)
           r.diagnostics))
    [ [ [ "consume"; "produce" ]; [ "middle" ] ]; [ [ "middle" ]; [ "consume"; "produce" ] ] ]

(* A producer and a consumer whose even and odd cells of a row are
   written by different statements: the forms 2*gi and 2*gi+[odd]
   interleave, which only the gcd rule settles.  [odd = 2] makes the
   writes share a parity: thread gi's second write meets thread gi+1's
   first. *)
let pairs_program ?(odd = 1) () =
  let src =
    Printf.sprintf
    {|
__global__ void produce(const double *U, double *A, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi >= 1 && gi < nx - 1 && gj < ny) {
    A[gj * nx + gi] = U[gj * nx + gi - 1] + U[gj * nx + gi + 1];
  }
}
__global__ void pairs(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < 16 && gj < ny) {
    B[gj * nx + 2 * gi] = A[gj * nx + 2 * gi];
    B[gj * nx + 2 * gi + %d] = A[gj * nx + 2 * gi + 1];
  }
}
|}
      odd
  in
  let nx, ny, _ = dims in
  program_of ~arrays:[ "U"; "A"; "B" ] ~src
    [
      ("produce", [ Arg_array "U"; Arg_array "A"; Arg_int nx; Arg_int ny ]);
      ("pairs", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]);
    ]

let test_clean_program_is_clean () =
  let r = V.verify_program (pairs_program ()) in
  Alcotest.(check bool) "clean" true (V.is_clean r);
  Alcotest.(check bool) "complete" true r.complete;
  Alcotest.(check int) "bounds proved" 2 r.stats.bounds_proved;
  Alcotest.(check int) "both proved" 2 r.stats.races_proved;
  Alcotest.(check int) "no launch unproved" 0 r.stats.races_fallback;
  Alcotest.(check int) "no thread walked" 0 r.stats.threads_walked

let test_proved_program_walks_nothing () =
  let r = V.verify_program (Util.producer_consumer_program ()) in
  Alcotest.(check bool) "clean" true (V.is_clean r);
  Alcotest.(check int) "races proved" 2 r.stats.races_proved;
  Alcotest.(check int) "no race fallback" 0 r.stats.races_fallback;
  Alcotest.(check int) "no thread walked" 0 r.stats.threads_walked;
  Alcotest.(check int) "no event" 0 r.stats.events

(* ------------------------------------------------------------------ *)
(* six applications: sources verify clean; pipeline output validates   *)
(* ------------------------------------------------------------------ *)

let test_apps_sources_clean () =
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      let r = V.verify_program a.program in
      Alcotest.(check bool) (a.app_name ^ " clean") true (V.is_clean r);
      Alcotest.(check bool) (a.app_name ^ " complete") true r.complete)
    (Kft_apps.Apps.all ())

let small_config =
  {
    F.default_config with
    verify_mode = F.Verify_fatal;
    gga_params = { Kft_gga.Gga.default_params with population = 10; generations = 8 };
  }

let test_pipeline_validates () =
  (* one representative app end-to-end under the fatal gate (the [verify]
     alias covers all six) *)
  let app = Kft_apps.Apps.mitgcm () in
  let rep = F.transform ~config:small_config app.program in
  Alcotest.(check bool) "verify_report clean" true (V.is_clean rep.verify_report);
  Alcotest.(check bool) "no rejected groups" true (rep.rejected_groups = []);
  Alcotest.(check bool) "some launches checked" true
    (rep.verify_report.stats.launches_checked > 0)

(* ------------------------------------------------------------------ *)
(* race proof: one clean kernel per rule, and its limits               *)
(* ------------------------------------------------------------------ *)

let std_launch name arrays =
  let nx, ny, _ = dims in
  (name, List.map (fun a -> Arg_array a) arrays @ [ Arg_int nx; Arg_int ny ])

let last_launch prog =
  List.fold_left (fun acc op -> match op with Launch l -> Some l | _ -> acc) None prog.p_schedule
  |> Option.get

(* the last launch is proved race-free, [rule] is among the rules that
   settled it, and the exhaustive oracle agrees *)
let check_proved ?(launches = 1) ~rule prog =
  let r = V.verify_program prog in
  Alcotest.(check bool) "clean" true (V.is_clean r);
  Alcotest.(check int) "no race fallback" 0 r.stats.races_fallback;
  Alcotest.(check int) "proved" launches r.stats.races_proved;
  let l = last_launch prog in
  (match V.Internal.race_verdict prog l with
  | Some (Absint.Race_free rules) ->
      if not (List.mem rule rules) then
        Alcotest.failf "rule %s not used (used: %s)" rule (String.concat ", " rules)
  | _ -> Alcotest.fail "no race-free verdict");
  Alcotest.(check (list string)) "the oracle finds nothing" []
    (List.map Race_oracle.pp_finding (Race_oracle.walk prog l))

(* the last launch stays unsettled, [verify_program] reports it as a
   race naming the open pair, and the oracle shows the race is real *)
let check_unsettled ~pair prog =
  let r = V.verify_program prog in
  let l = last_launch prog in
  Alcotest.(check int) "one launch unproved" 1 r.stats.races_fallback;
  (match V.Internal.race_verdict prog l with
  | Some (Absint.Race_unsettled u) -> Alcotest.(check string) "open pair" pair u.un_why
  | _ -> Alcotest.fail "the racy launch was settled");
  Alcotest.(check bool) "race reported" true
    (List.exists
       (fun (d : V.diagnostic) -> d.d_pass = V.Race && d.d_kernel = l.l_kernel && Util.contains d.d_message pair)
       r.diagnostics);
  Alcotest.(check bool) "the oracle finds the race" true (Race_oracle.has_race (Race_oracle.walk prog l))

let test_rule_read_only () =
  let src =
    {|
__global__ void copy(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi >= 1 && gi < nx - 1 && gj < ny) {
    B[gj * nx + gi] = A[gj * nx + gi - 1] + A[gj * nx + gi + 1];
  }
}
|}
  in
  check_proved ~rule:"read-only"
    (program_of ~arrays:[ "A"; "B" ] ~src [ std_launch "copy" [ "A"; "B" ] ])

let test_rule_disjoint_ranges () =
  (* boundary copy: plane 3 is written from plane 2 of the same array *)
  let src =
    {|
__global__ void bc(double *P, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    P[(3 * ny + j) * nx + i] = 0.5 * P[(2 * ny + j) * nx + i];
  }
}
|}
  in
  check_proved ~rule:"disjoint-ranges" (program_of ~arrays:[ "P" ] ~src [ std_launch "bc" [ "P" ] ])

let test_rule_own_cell () =
  (* in-place update of the thread's own cell, every plane *)
  let src =
    {|
__global__ void upd(const double *H, double *E, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  for (int k = 0; k < 4; k++) {
    E[(k * ny + j) * nx + i] = 0.5 * (H[(k * ny + j) * nx + i] + E[(k * ny + j) * nx + i]);
  }
}
|}
  in
  check_proved ~rule:"own-cell" (program_of ~arrays:[ "H"; "E" ] ~src [ std_launch "upd" [ "H"; "E" ] ])

(* the produced-tile pattern of a fused kernel: a cooperative preload
   of a (16+2)x(4+2) tile reading A only outside the interior the block
   later writes back, a barrier, then the own-cell writeback *)
let tile_src =
  {|
__global__ void tile(double *A, int nx, int ny) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int tid = ty * 16 + tx;
  int gi = blockIdx.x * 16 + tx;
  int gj = blockIdx.y * 4 + ty;
  __shared__ double s_A[6][18];
  for (int c = tid; c < 108; c += 64) {
    int lx = c % 18;
    int ly = c / 18;
    int gx = blockIdx.x * 16 + lx - 1;
    int gy = blockIdx.y * 4 + ly - 1;
    if (gx >= 0 && gx < 32 && gy >= 0 && gy < 8) {
      if (gx >= 1 && gx < 31 && gy >= 1 && gy < 7) {
        ;
      } else {
        s_A[ly][lx] = A[32 * gy + gx];
      }
    }
  }
  __syncthreads();
  if (gi >= 1 && gi < 31 && gj >= 1 && gj < 7) {
    A[32 * gj + gi] = s_A[ty][tx + 1] + s_A[ty + 2][tx + 1];
  }
}
|}

let tile_program () = program_of ~arrays:[ "A" ] ~src:tile_src [ std_launch "tile" [ "A" ] ]
let test_rule_outside_guard () = check_proved ~rule:"outside-guard" (tile_program ())
let test_rule_injective_write () = check_proved ~rule:"injective-write" (tile_program ())
let test_rule_barrier () = check_proved ~rule:"barrier" (tile_program ())

let test_rule_same_site () =
  (* every thread of a row writes the row's first cell from one
     statement: exempt on global memory, as in the walker *)
  let src =
    {|
__global__ void halo(double *B, int nx, int ny) {
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gj < ny) {
    B[gj * nx] = 1.0;
  }
}
|}
  in
  let prog = program_of ~arrays:[ "B" ] ~src [ std_launch "halo" [ "B" ] ] in
  check_proved ~rule:"same-site" prog;
  (* the threads of a row meet, so the write is not injective *)
  match V.Internal.race_verdict prog (last_launch prog) with
  | Some (Absint.Race_free rules) ->
      Alcotest.(check bool) "not injective-write" false (List.mem "injective-write" rules)
  | _ -> Alcotest.fail "no race-free verdict"

(* a column writer: each thread writes its own column, plane by plane;
   the write meeting itself is injective in the thread, block and trip
   counter, so no other thread can meet it *)
let column_src =
  {|
__global__ void col(const double *A, double *C, int nx, int ny) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < 4; k++) {
      C[(k * ny + j) * nx + i] = 2.0 * A[(k * ny + j) * nx + i];
    }
  }
}
|}

let test_rule_injective_global_write () =
  let prog = program_of ~arrays:[ "A"; "C" ] ~src:column_src [ std_launch "col" [ "A"; "C" ] ] in
  check_proved ~rule:"injective-write" prog;
  match V.Internal.race_verdict prog (last_launch prog) with
  | Some (Absint.Race_free rules) ->
      Alcotest.(check bool) "not same-site" false (List.mem "same-site" rules)
  | _ -> Alcotest.fail "no race-free verdict"

(* Fluam's particle kernels write [PO[i]] over a 1024x1 domain: at their
   own 32x1 block each cell has one thread; at 32x4 the four rows of a
   block write the same cells, which only the same-site exemption
   clears *)
let test_rule_part_same_site () =
  let fluam = (Kft_apps.Apps.fluam ()).program in
  let part =
    List.find_map
      (function Launch l when l.l_kernel = "part_01" -> Some l | _ -> None)
      fluam.p_schedule
    |> Option.get
  in
  let rules block =
    let l = { part with l_block = block } in
    match Option.map (Absint.launch_race_verdict fluam l) (Absint.analyze_launch fluam l) with
    | Some (Absint.Race_free rules) -> rules
    | _ -> Alcotest.fail "no race-free verdict"
  in
  Alcotest.(check bool) "32x1: injective-write" true (List.mem "injective-write" (rules (32, 1, 1)));
  Alcotest.(check bool) "32x1: no same-site" false (List.mem "same-site" (rules (32, 1, 1)));
  Alcotest.(check bool) "32x4: same-site" true (List.mem "same-site" (rules (32, 4, 1)));
  Alcotest.(check bool) "32x4: not injective" false (List.mem "injective-write" (rules (32, 4, 1)));
  Alcotest.(check bool) "32x1 -> 32x4 is not block-invariant" false
    (Absint.block_invariant fluam { part with l_block = (32, 1, 1) } ~block:(32, 4, 1));
  Alcotest.(check bool) "32x1 -> 64x1 is block-invariant" true
    (Absint.block_invariant fluam { part with l_block = (32, 1, 1) } ~block:(64, 1, 1))

(* each condition of [block_invariant], broken one at a time on the
   column writer over a 64x8 domain *)
let test_block_invariant_conditions () =
  let dims = (64, 8, 4) in
  let with_src ?(domain = (64, 8, 1)) src =
    let p =
      program_of ~dims ~arrays:[ "A"; "C" ] ~src
        [ ("col", [ Arg_array "A"; Arg_array "C"; Arg_int 64; Arg_int 8 ]) ]
    in
    let l = { (last_launch p) with l_domain = domain } in
    fun ~from ~block -> Absint.block_invariant p { l with l_block = from } ~block
  in
  let col = with_src column_src in
  let replace what by =
    let n = String.length what in
    let rec at i = if String.sub column_src i n = what then i else at (i + 1) in
    let i = at 0 in
    String.sub column_src 0 i ^ by ^ String.sub column_src (i + n) (String.length column_src - i - n)
  in
  Alcotest.(check bool) "64x4 -> 32x4" true (col ~from:(64, 4, 1) ~block:(32, 4, 1));
  Alcotest.(check bool) "itself" true (col ~from:(64, 4, 1) ~block:(64, 4, 1));
  Alcotest.(check bool) "x-width not a multiple of 32" false (col ~from:(64, 4, 1) ~block:(16, 4, 1));
  Alcotest.(check bool) "another thread box" false (col ~from:(64, 4, 1) ~block:(64, 3, 1));
  let ragged = with_src ~domain:(40, 8, 1) column_src in
  Alcotest.(check bool) "a ragged domain, the same box" true (ragged ~from:(32, 4, 1) ~block:(64, 4, 1));
  Alcotest.(check bool) "a ragged domain, another box" false (ragged ~from:(32, 4, 1) ~block:(96, 4, 1));
  Alcotest.(check bool) "a bare threadIdx" false
    ((with_src (replace "2.0 *" "threadIdx.x *")) ~from:(64, 4, 1) ~block:(32, 4, 1));
  Alcotest.(check bool) "a barrier" false
    ((with_src (replace "if (i < nx" "__syncthreads();\n  if (i < nx")) ~from:(64, 4, 1) ~block:(32, 4, 1));
  Alcotest.(check bool) "a shared array" false
    ((with_src (replace "if (i < nx" "__shared__ double s[4];\n  if (i < nx")) ~from:(64, 4, 1)
       ~block:(32, 4, 1));
  Alcotest.(check bool) "only same-site clears the write" false
    ((with_src (replace "C[(k * ny + j) * nx + i]" "C[k * ny * nx + i]")) ~from:(64, 4, 1)
       ~block:(32, 4, 1))

(* gap (a): a block writes its tile, waits at a barrier, then reads the
   tile mirrored; [reach = 16] reads one cell into the next block's
   tile (inside the array, so only the tile width decides), and
   [barrier = false] leaves the mirrored threads unordered *)
let tile_flip_program ?(reach = 15) ?(barrier = true) () =
  let src =
    Printf.sprintf
      {|
__global__ void flip(double *B, double *C, int nx, int ny) {
  int tx = threadIdx.x;
  int gi = blockIdx.x * 16 + tx;
  int gj = blockIdx.y * 4 + threadIdx.y;
  B[gj * nx + gi] = 1.0;
  %s
  if (blockIdx.x * 16 + %d - tx < nx) {
    C[gj * nx + gi] = B[gj * nx + blockIdx.x * 16 + %d - tx];
  }
}
|}
      (if barrier then "__syncthreads();" else ";")
      reach reach
  in
  (* rows of 64 keep the offset 16 inside the row's coordinate *)
  program_of ~dims:(64, 8, 4) ~arrays:[ "B"; "C" ] ~src
    [ ("flip", [ Arg_array "B"; Arg_array "C"; Arg_int 64; Arg_int 8 ]) ]

let test_rule_block_tile () = check_proved ~rule:"block-tile" (tile_flip_program ())

let test_block_tile_crossed () =
  let pair = "write of B at 6:3 may meet read of B at 9:5" in
  check_unsettled ~pair (tile_flip_program ~reach:16 ());
  check_unsettled ~pair (tile_flip_program ~barrier:false ())

(* gap (b): interleaved writes by two statements *)
let test_rule_gcd () = check_proved ~launches:2 ~rule:"gcd" (pairs_program ())

let test_gcd_same_parity () =
  check_unsettled ~pair:"write of B at 13:5 may meet write of B at 14:5" (pairs_program ~odd:2 ())

let test_arg_mismatch () =
  let src =
    {|
__global__ void copy(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = A[gj * nx + gi];
  }
}
|}
  in
  let nx, _, _ = dims in
  List.iter
    (fun (what, args, mismatch) ->
      let prog = program_of ~arrays:[ "A"; "B" ] ~src [ ("copy", args) ] in
      let r = V.verify_program prog in
      Alcotest.(check (list string))
        (what ^ ": one engine diagnostic")
        [ "copy:3:3:[engine] launch arguments do not match the parameters of copy: " ^ mismatch
          ^ "; launch not analyzed" ]
        (List.map V.pp_diagnostic r.diagnostics);
      Alcotest.(check int) (what ^ ": nothing proved") 0 (r.stats.bounds_proved + r.stats.races_proved);
      Alcotest.(check bool) (what ^ ": no race verdict") true
        (V.Internal.race_verdict prog (last_launch prog) = None))
    [
      ("missing ny", [ Arg_array "A"; Arg_array "B"; Arg_int nx ], "expects 4 arguments, got 3");
      ( "array for nx",
        [ Arg_array "A"; Arg_array "B"; Arg_array "A"; Arg_int nx ],
        "parameter nx expects an int argument" );
    ]

let test_proved_oob_message () =
  let src =
    {|
__global__ void far(double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi + 100000] = 1.0;
  }
}
|}
  in
  let r = V.verify_program (program_of ~arrays:[ "B" ] ~src [ std_launch "far" [ "B" ] ]) in
  Alcotest.(check string) "message"
    "out-of-bounds write of B: proved index range [100000,100255] entirely outside extent of \
     1024 cells"
    (diag_of V.Bounds r).d_message

let test_race_in_unsampled_block () =
  (* 6 blocks along x: block 3's second write lands on cells block 4
     writes.  A sampled walk of blocks 0, 1 and 5 never saw it; the
     proof leaves the pair open and reports it. *)
  let src =
    {|
__global__ void mid(double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = 1.0;
    if (blockIdx.x == 3 && gi < nx - 16) {
      B[gj * nx + gi + 16] = 2.0;
    }
  }
}
|}
  in
  let dims = (96, 4, 1) in
  let prog =
    program_of ~dims ~block:(16, 4, 1) ~arrays:[ "B" ] ~src
      [ ("mid", [ Arg_array "B"; Arg_int 96; Arg_int 4 ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check int) "bounds proved" 1 r.stats.bounds_proved;
  Alcotest.(check int) "never proved" 0 r.stats.races_proved;
  Alcotest.(check (list string)) "the open pair is reported"
    [
      "mid:6:5:[race] race freedom not proved: write of B at 6:5 may meet write of B at 8:7 (rules \
       tried: disjoint-ranges, own-cell, outside-guard, block-tile, gcd) -- B[gj * nx + gi] = 1.0;";
    ]
    (List.map V.pp_diagnostic r.diagnostics);
  Alcotest.(check bool) "the exhaustive oracle finds the race" true
    (Race_oracle.has_race (Race_oracle.walk prog (last_launch prog)))

let test_shared_neighbour_race () =
  (* each thread reads its right neighbour's tile cell with no barrier
     after the write: a read-write race inside one barrier interval *)
  let src =
    {|
__global__ void nb(const double *A, double *B, int nx, int ny) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int gi = blockIdx.x * 16 + tx;
  int gj = blockIdx.y * 4 + ty;
  __shared__ double s[4][17];
  s[ty][tx] = A[gj * nx + gi];
  B[gj * nx + gi] = s[ty][tx + 1];
}
|}
  in
  let r = V.verify_program (program_of ~arrays:[ "A"; "B" ] ~src [ std_launch "nb" [ "A"; "B" ] ]) in
  Alcotest.(check int) "never proved" 0 r.stats.races_proved;
  Alcotest.(check bool) "race reported" true (has_pass V.Race r)

(* soundness of the prover against the exhaustive oracle, on the fuzzed
   stencil chains, on the fused kernel of each whole chain, and on the
   chain run in place (each kernel's output bound to its input: racy
   whenever a stencil offset is nonzero) *)
let prop_proved_means_race_free =
  QCheck.Test.make ~name:"a launch the race proof clears has no race on any block" ~count:40
    Util.fuzz_sample_arb (fun s ->
      let prog = s.Util.fz_program in
      let launches = List.filter_map (function Launch l -> Some l | _ -> None) prog.p_schedule in
      let fused = (Kft_codegen.Codegen.transform Util.device prog ~groups:[ launches ]).program in
      let in_place =
        {
          prog with
          p_schedule =
            List.map
              (function
                | Launch ({ l_args = Arg_array a :: Arg_array _ :: rest; _ } as l) ->
                    Launch { l with l_args = Arg_array a :: Arg_array a :: rest }
                | op -> op)
              prog.p_schedule;
        }
      in
      List.for_all
        (fun p ->
          List.for_all
            (function
              | Launch l -> (
                  match V.Internal.race_verdict p l with
                  | Some (Absint.Race_free _) -> not (Race_oracle.has_race (Race_oracle.walk p l))
                  | _ -> true)
              | _ -> true)
            p.p_schedule)
        [ prog; fused; in_place ])

(* ------------------------------------------------------------------ *)
(* round-trip: Parse (Pp.kernels k) == k                               *)
(* ------------------------------------------------------------------ *)

let roundtrip_kernels what kernels =
  let text = Kft_cuda.Pp.kernels kernels in
  let parsed = Kft_cuda.Parse.kernels text in
  Alcotest.(check int) (what ^ ": kernel count") (List.length kernels) (List.length parsed);
  List.iter2
    (fun (k : kernel) (k' : kernel) ->
      if k <> k' then
        Alcotest.failf "%s: kernel %s does not round-trip:\n%s\n  !=\n%s" what k.k_name
          (Kft_cuda.Pp.kernel k) (Kft_cuda.Pp.kernel k'))
    kernels parsed

let test_roundtrip_apps () =
  List.iter
    (fun (a : Kft_apps.Apps.app) -> roundtrip_kernels a.app_name a.program.p_kernels)
    (Kft_apps.Apps.all ())

let test_roundtrip_fused () =
  let app = Kft_apps.Apps.bcalm () in
  let rep = F.transform ~config:small_config app.program in
  let fused_names =
    List.filter_map
      (fun (r : Kft_codegen.Codegen.kernel_report) ->
        if r.fusion_kind <> `None then Some r.new_kernel else None)
      rep.codegen.reports
  in
  Alcotest.(check bool) "some kernels fused" true (fused_names <> []);
  let fused =
    List.filter (fun k -> List.mem k.k_name fused_names) rep.transformed.p_kernels
  in
  roundtrip_kernels "fused kernels" fused

let suite =
  [
    Alcotest.test_case "shared-memory race is reported with location" `Quick test_shared_race;
    Alcotest.test_case "divergent barrier is reported (verifier + checker)" `Quick
      test_divergent_barrier;
    Alcotest.test_case "out-of-bounds halo read is reported" `Quick test_oob_halo;
    Alcotest.test_case "DDG order violation fails translation validation" `Quick
      test_order_violation;
    Alcotest.test_case "validate reuses a given source analysis" `Quick
      test_validate_source_flow;
    Alcotest.test_case "a fused order broken only through an outside launch is reported" `Quick
      test_transitive_order_violation;
    Alcotest.test_case "a return after the last barrier is accepted" `Quick
      test_return_after_last_barrier;
    Alcotest.test_case "clean producer/consumer program verifies clean" `Quick
      test_clean_program_is_clean;
    Alcotest.test_case "six application sources verify clean" `Quick test_apps_sources_clean;
    Alcotest.test_case "pipeline output validates under the fatal gate" `Quick
      test_pipeline_validates;
    Alcotest.test_case "proved program walks no thread" `Quick test_proved_program_walks_nothing;
    Alcotest.test_case "race rule: read-only arrays" `Quick test_rule_read_only;
    Alcotest.test_case "race rule: disjoint ranges (boundary copy)" `Quick
      test_rule_disjoint_ranges;
    Alcotest.test_case "race rule: own cell (in-place update)" `Quick test_rule_own_cell;
    Alcotest.test_case "race rule: outside the writer's guard (tile preload)" `Quick
      test_rule_outside_guard;
    Alcotest.test_case "race rule: injective shared write (cooperative load)" `Quick
      test_rule_injective_write;
    Alcotest.test_case "race rule: barrier-separated shared accesses" `Quick test_rule_barrier;
    Alcotest.test_case "race rule: same-site global writes exempt" `Quick test_rule_same_site;
    Alcotest.test_case "race rule: injective global write (column writer)" `Quick
      test_rule_injective_global_write;
    Alcotest.test_case "race rule: Fluam part_01 at 32x4 is same-site" `Quick test_rule_part_same_site;
    Alcotest.test_case "block invariance needs every condition" `Quick test_block_invariant_conditions;
    Alcotest.test_case "proved out-of-bounds message text" `Quick test_proved_oob_message;
    Alcotest.test_case "race rule: block tile across a barrier (global)" `Quick
      test_rule_block_tile;
    Alcotest.test_case "race rule: gcd of interleaved writes" `Quick test_rule_gcd;
    Alcotest.test_case "a read crossing the block tile, or the barrier, stays unsettled" `Quick
      test_block_tile_crossed;
    Alcotest.test_case "writes of one parity stay unsettled" `Quick test_gcd_same_parity;
    Alcotest.test_case "launch arguments that do not bind are one engine diagnostic" `Quick
      test_arg_mismatch;
    Alcotest.test_case "race in an unsampled block is reported, never proved" `Quick
      test_race_in_unsampled_block;
    Alcotest.test_case "shared read-write race in one interval is never proved" `Quick
      test_shared_neighbour_race;
    QCheck_alcotest.to_alcotest prop_proved_means_race_free;
  ]

let roundtrip_suite =
  [
    Alcotest.test_case "app kernels round-trip through Pp.kernels/Parse" `Quick
      test_roundtrip_apps;
    Alcotest.test_case "fused kernels round-trip through Pp.kernels/Parse" `Quick
      test_roundtrip_fused;
  ]
