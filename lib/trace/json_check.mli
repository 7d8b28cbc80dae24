(** Strict JSON syntax checker (RFC 8259 grammar; no interpretation).

    Validates the repo's hand-rolled JSON emitters — {!Trace.render_json},
    {!Trace.render_chrome}, [Lint.render_json], the bench tables — in
    tests and the [@verify] CI sweep without a JSON library dependency. *)

val check : string -> (unit, string) result
(** [Ok ()] iff the whole input is exactly one valid JSON value
    (surrounding whitespace allowed); [Error msg] pinpoints the first
    offending byte otherwise. *)

val is_valid : string -> bool
