(** Command-line entry points for the [kft] and [kft-transform]
    binaries, factored into a library so the test suite can evaluate the
    exact production terms in-process ([Cmdliner.Cmd.eval ~argv])
    instead of forking the installed executables.

    Both drivers expose the tracing layer ({!Kft_trace.Trace}):

    - [kft-transform --trace FILE] writes the deterministic machine-JSON
      trace of the whole pipeline; [--trace-chrome FILE] writes the same
      run in Chrome [trace_event] format (load in [about:tracing] or
      Perfetto). The JSON file is byte-identical at any [--jobs] value.
    - [kft lint --trace FILE] writes a per-program lint trace with
      per-rule finding counters.

    No function here calls [exit]; each returns the process exit code. *)

val transform_main : ?argv:string array -> unit -> int
(** Evaluate the [kft-transform] command line. [argv] defaults to
    [Sys.argv]. Returns the exit code: 0 on success, 1 on a failed
    transformation (output or fatal static verification), 124 on a
    command-line error: a parse error, or an unknown application,
    device or [--backend] value (only [affine] and [interp] exist). *)

val kft_main : ?argv:string array -> unit -> int
(** Evaluate the [kft] umbrella command line ([kft lint ...]). Returns
    0 when clean, 1 when the lint found warnings (or, with [--strict],
    any finding), 2 for an unknown program name, 124 on a command-line
    parse error. *)
