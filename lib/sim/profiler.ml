open Kft_cuda.Ast

type kernel_profile = {
  kernel : string;
  launch : launch;
  stats : Interp.stats;
  timing : Timing.breakdown;
  regs_per_thread : int;
  cost : Kft_analysis.Cost.t;
}

type run = {
  profiles : kernel_profile list;
  total_time_us : float;
  memory : Memory.t;
}

(* the one place a launch's stats become a profile: a simulated launch
   and one whose stats were replayed from a memo both go through here *)
let profile_of_stats device prog l stats =
  let kernel = find_kernel prog l.l_kernel in
  let env = Kft_analysis.Access.env_of_launch prog l in
  let cost = Kft_analysis.Cost.of_kernel kernel env in
  let regs_per_thread = Kft_analysis.Cost.estimate_registers kernel in
  let timing =
    Timing.evaluate
      { device; stats; block = l.l_block; regs_per_thread; dependent_chain = cost.dependent_chain }
  in
  { kernel = l.l_kernel; launch = l; stats; timing; regs_per_thread; cost }

let run_of_profiles profiles memory =
  {
    profiles;
    total_time_us = List.fold_left (fun acc p -> acc +. p.timing.Timing.runtime_us) 0.0 profiles;
    memory;
  }

let profile ?engine ?affine ?backend ?trace ?layout ?(seed = 42) device prog =
  let mem = Memory.create ?layout prog.p_arrays in
  Memory.init_seeded mem ~seed;
  let profiles =
    List.filter_map
      (function
        | Launch l ->
            let stats = Interp.launch ?engine ?affine ?backend ?trace mem prog l in
            Some (profile_of_stats device prog l stats)
        | Copy_to_device _ | Copy_to_host _ -> None)
      prog.p_schedule
  in
  run_of_profiles profiles mem

(* only arrays common to both memories are compared: a transformation
   may add or drop temporaries *)
let output_diffs ?(equal = fun _ -> false) ~tol m1 m2 =
  List.filter_map
    (fun n ->
      if not (Memory.mem m2 n) then None
      else
        let d = if equal n then 0.0 else Memory.array_max_abs_diff m1 m2 n in
        if d > tol then Some (n, d) else None)
    (List.sort_uniq compare (Memory.names m1))

let verify ?engine ?affine ?backend ?trace ?(seed = 42) ?(tol = 1e-9) device ~original ~transformed =
  let run p = (profile ?engine ?affine ?backend ?trace ~seed device p).memory in
  let m1 = run original and m2 = run transformed in
  let diffs = output_diffs ~tol m1 m2 in
  (* both memories are private to this verification: take them off the
     live count *)
  Memory.release m1;
  Memory.release m2;
  if diffs = [] then Ok () else Error diffs

let speedup ~original ~transformed =
  if transformed.total_time_us <= 0.0 then infinity
  else original.total_time_us /. transformed.total_time_us

let traffic_by_kernel run =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let b = float_of_int (p.stats.Interp.global_read_bytes + p.stats.Interp.global_write_bytes) in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl p.kernel) in
      Hashtbl.replace tbl p.kernel (cur +. b))
    run.profiles;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
