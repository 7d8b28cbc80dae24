(** [kft lint]: static diagnostics derived from the abstract
    interpreter's access and guard records, with advisory hardware-cost
    hints from the performance model.

    Rules (rule name — severity):
    - [bounds] — warning: an access the domain cannot prove in bounds
      (or proves out of bounds);
    - [uncoalesced] — warning: a global access whose lowest-dimension
      (threadIdx.x) stride is not 0 or ±1, with the modeled transaction
      amplification;
    - [bank-conflict] — warning: a shared-memory access whose linearized
      per-lane stride shares a factor with the warp size;
    - [footprint-drift] — warning: the statically derived per-kernel
      global traffic is exact yet disagrees with the measured profile;
    - [divergent-guard] — info: a thread-dependent guard the domain
      cannot decide, with the modeled warp-serialization penalty;
    - [dead-guard] — info: a guard decided statically (spliceable).

    Output is deterministic: findings are totally ordered by (program,
    kernel, line, col, rule, message) and deduplicated. [kft lint -j N]
    lints one program per task on the [Kft_engine.Engine] pool and
    normalizes the concatenation, so its human and JSON renderings are
    byte-stable across [--jobs] settings. *)

type severity = Warn | Info

type finding = {
  f_program : string;
  f_kernel : string;
  f_loc : Kft_cuda.Loc.pos;
  f_rule : string;
  f_severity : severity;
  f_message : string;
}

val program :
  ?measured:(string * float) list -> Kft_cuda.Ast.program -> finding list
(** Lint every launch of one program. [measured] optionally maps kernel
    names to measured global-traffic bytes (profiler counters) for the
    [footprint-drift] cross-check; kernels launched more than once are
    exempt from that rule (their static estimates are per-launch). *)

val normalize : finding list -> finding list
(** Sort into the total order and deduplicate. Producers of findings
    outside this module (the schedule-level rules of kft_schedflow)
    normalize through this so merged reports keep the byte-stability
    contract. *)

val severity_name : severity -> string
(** ["warning"] / ["info"] — the JSON field spelling. *)

val json_escape : string -> string
(** {!Kft_trace.Trace.json_escape}, the escaping {!render_json} uses. *)

val render : finding -> string
(** One line: [program:kernel:line:col: severity [rule] message]. *)

val render_human : finding list -> string
(** The full human report, one finding per line plus a summary line. *)

val render_summary : string list -> finding list -> string
(** The short human report: one line per named program with its
    warning and note counts, then every warning in full, then the
    summary line of {!render_human}. *)

val render_json : finding list -> string
(** The whole report as one JSON document:
    [{"tool":"kft-lint","version":1,"findings":[...],"warnings":N,"infos":N}].
    Stable field order, no floats, LF line endings. *)

val warnings : finding list -> int
val infos : finding list -> int

val rule_counts : finding list -> (string * int) list
(** Finding count per rule, sorted by rule name (only rules that fired).
    Deterministic — the per-rule counters the trace layer records. *)
