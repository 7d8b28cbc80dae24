(** Fused-kernel construction (Sections 5.5.2 and 5.5.3).

    Given the canonicalized members of one fusion group, the builder
    produces a single kernel:

    - {b simple fusion} (no precedence among members): member bodies are
      aggregated under one vertical loop; arrays read by two or more
      members are staged into shared-memory tiles once per plane and the
      member statements are rewritten to read the tiles; loop bounds are
      aligned with guard conditionals.
    - {b complex fusion} (producer -> consumer precedence): on top of the
      above, a producer's output is computed cooperatively over an
      extended tile (temporal blocking with halo layers sized by the
      consumers' stencil radii), a barrier separates it from the
      consumers, and the producer's own cell is written back to global
      memory so downstream kernels outside the group still see it.

    [check_group] encodes the soundness rules for the GPU memory model
    (block-scoped shared memory, no inter-block coherence): cross-member
    reads with a vertical offset, or halo reads across a
    write-after-read hazard, make a group infeasible. The same predicate
    is exposed to the GGA so the search never proposes groups the
    generator cannot implement. *)

type options = {
  deep_nest_strategy : [ `Sequential | `Inner_shared ];
      (** [`Sequential] (automated mode) keeps deep loop nests opaque —
          fused but without reuse (the Figure 6 defect); [`Inner_shared]
          (the manual/guided fix) hoists the outer vertical loop *)
  branch_scheme : [ `Per_statement | `Hoisted ];
      (** [`Per_statement] (automated mode) guards every member statement
          separately, multiplying divergent branch evaluations (the
          Figure 7 defect); [`Hoisted] (manual fix) guards once *)
  tune_blocks : bool;
  eliminate_guards : bool;
      (** drop generated guards whose condition the abstract interpreter
          (Absint) proves implied by the block domain; the rewrite
          is validated like any other fused kernel *)
}

val auto_options : options
(** What the automated transformation generates. *)

val manual_options : options
(** What the expert hand-written fusion of [28] looks like. *)

type stage_kind = Reuse | Produced of int  (** producer member index *)

type stage = {
  s_array : string;
  s_kind : stage_kind;
  s_radius : int;  (** halo layers, per the max consumer stencil radius *)
  s_tile : string;  (** shared-memory tile name *)
}

type plan = {
  p_members : Canonical.member list;
  p_stages : stage list;
  p_klo : int;
  p_khi : int;
  p_has_kloop : bool;
  p_shared_bytes : int -> int -> int;  (** per-block staging bytes at block (bx, by) *)
}

val check_group : Canonical.member list -> (plan, string) result
(** Feasibility + staging plan. [Error] carries the human-readable
    reason reported to the programmer. *)

val radius_cap : int
(** Maximum supported halo radius (stencils wider than this make the
    thread-block halo "exceedingly large", Section 7). *)

val build :
  Kft_device.Device.t ->
  options ->
  name:string ->
  block:(int * int) ->
  plan ->
  (Kft_cuda.Ast.kernel * Kft_cuda.Ast.launch * int, string) result
(** Generate the fused kernel and its launch; the [int] counts guards
    statically eliminated under [eliminate_guards]. [Error] when the
    staging footprint exceeds the device's per-block shared memory at
    this block size. *)
