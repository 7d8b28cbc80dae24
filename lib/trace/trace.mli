(** Deterministic end-to-end tracing: hierarchical spans plus monotonic
    counters for every pipeline stage, worker pool, simulator launch and
    search generation.

    {b Determinism contract.} A trace has two channels:

    - the {e canonical channel} — span tree, logical sequence numbers,
      counters and [set] args. Everything here is a pure function of the
      traced computation's inputs, never of its scheduling: all span
      opens/closes and counter bumps happen on the coordinator domain,
      in the same submission order that {!Kft_engine.Engine.Pool.map}
      reduces in, so {!render_json} is byte-identical at any [--jobs]
      value and across repeated runs (with a fresh profile cache).
    - the {e side channel} — wall-clock timestamps and [note] args
      (worker counts, chunk splits, queue depths: execution shape).
      Excluded from {!render_json}; shown by {!render_tree} and
      {!render_chrome}, which are diagnostic views, not golden surfaces.

    All operations besides rendering must be called from the domain that
    created the trace (the coordinator); instrumented libraries only
    touch the trace outside their worker-domain code. *)

type value = Int of int | Float of float | Bool of bool | Str of string

type t
(** A trace: a root span plus a cursor into the currently open span. *)

val create : ?clock:(unit -> float) -> string -> t
(** Fresh trace whose root span is named after the traced run.
    [clock] (default [Unix.gettimeofday]) feeds the side channel only;
    tests inject a fixed clock to pin renderer output. *)

val name : t -> string

(** {1 Recording}

    Every recording function takes a [t option] so instrumented code
    threads an optional trace with zero syntactic overhead: [None] makes
    each call a no-op. *)

val with_span : t option -> string -> (unit -> 'a) -> 'a
(** [with_span tr name f] opens a child span of the currently open span,
    runs [f], and closes it (also on exception). Span ids are logical
    sequence numbers assigned in open order. *)

val add : t option -> string -> int -> unit
(** Bump a monotonic counter on the currently open span (created at 0 on
    first use; counter order is first-use order — canonical channel). *)

val set : t option -> string -> value -> unit
(** Set a deterministic argument on the currently open span (canonical
    channel; last write wins). *)

val note : t option -> string -> value -> unit
(** Set a side-channel argument on the currently open span: execution
    shape (worker counts, chunking, queue depths) and anything else that
    may legitimately vary with [--jobs]. Excluded from {!render_json}. *)

(** {1 Inspection} *)

val top_spans : t -> (string * float) list
(** Direct children of the root span in sequence order, with wall-clock
    duration in seconds (side channel) — the per-stage breakdown the
    bench harness tabulates. *)

val counters : t -> string -> (string * int) list
(** Summed counters over every span named [name] (canonical channel). *)

(** {1 Exporters} *)

val render_tree : t -> string
(** Human-readable span tree with counters, args and wall-clock
    durations; appended to the stage report. Not a golden surface. *)

val render_json : t -> string
(** Canonical machine JSON (schema in README "Tracing"): the span tree
    with sequence numbers, counters and [set] args only. Byte-identical
    at any worker count and across repeated runs. *)

val render_chrome : t -> string
(** Chrome [trace_event] JSON (complete "X" events with microsecond
    timestamps relative to trace creation) loadable in about:tracing and
    Perfetto. Includes the side channel. *)

val json_escape : string -> string
(** The body of a JSON string literal: escapes the double quote, the
    backslash, newline and the other control characters, and copies
    every other byte. The one escaper behind every JSON document the
    tools write. *)
