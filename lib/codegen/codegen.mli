(** Transformation driver: turn a fusion/fission solution into a new
    CUDA program (Section 3.2.5) plus the per-kernel report the
    programmer reviews.

    Groups that the generator cannot implement (non-canonical members,
    infeasible staging) fall back to emitting their members unfused,
    with the reason recorded — the paper's framework likewise reports
    "hints of possible inefficiencies" rather than failing. *)

type kernel_report = {
  new_kernel : string;
  members : string list;  (** original kernel names aggregated into it *)
  fusion_kind : [ `None | `Simple | `Complex ];
  staged_arrays : (string * int) list;  (** array, halo radius *)
  shared_bytes : int;
  block : int * int * int;
  tuned : bool;
  occupancy_before : float;
  occupancy_after : float;
  notes : string list;
}

type result = {
  program : Kft_cuda.Ast.program;
  reports : kernel_report list;
}

val transform :
  ?options:Fusion.options ->
  Kft_device.Device.t ->
  Kft_cuda.Ast.program ->
  groups:Kft_cuda.Ast.launch list list ->
  result
(** [groups] must cover every launch of the schedule exactly once, with
    groups already ordered so that inter-group precedences point forward
    (the framework topologically orders them from the OEG). Non-launch
    schedule entries (memcpys) are preserved at the end of the schedule
    they followed. *)

val tune_single :
  Kft_device.Device.t ->
  Kft_cuda.Ast.program ->
  Kft_cuda.Ast.launch ->
  (int * int * int) * float * float * string list
(** Thread-block tuning of an unfused kernel: returns (new block,
    occupancy before, occupancy after, report notes). Kernels without a
    top-level guard are left untouched (the grid may not overshoot their
    domain). A tuned block is kept only when
    {!Kft_analysis.Absint.block_invariant} proves that the launch means
    the same under it; otherwise the source block stays and a note says
    which retune was refused. *)
