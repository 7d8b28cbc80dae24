(** The six evaluation applications of Section 6.1.1, rebuilt as
    synthetic CUDA-subset codebases.

    Each generator reproduces the *structure* the paper describes for
    the real code (kernel population mix, array-sharing topology, the
    features that drive its result), scaled down in grid size so the
    simulator stays fast; EXPERIMENTS.md records the scaling. All
    generators are deterministic. *)

type app = {
  app_name : string;
  description : string;
  program : Kft_cuda.Ast.program;
}

val bench_device : Kft_device.Device.t
(** K20X with the kernel-launch overhead scaled to the reduced grid
    sizes (0.3 us instead of 6 us), preserving the paper's ratio of
    per-kernel work to launch overhead. *)

val bench_device_k40 : Kft_device.Device.t

val scale_les : ?dims:Gen.dims -> ?chains:int -> unit -> app
(** Weather-model dynamical core: flux -> tendency -> update chains over
    a few dozen prognostic fields sharing a flux-array pool
    (multi-writer arrays exercise the DDG redundant-instance
    optimization), vertical-band integration kernels with depth-2 loop
    nests (the Figure 6 defect population), boundary-condition and
    compute-bound kernels that the target filter must exclude. *)

val homme : ?dims:Gen.dims -> ?chains:int -> unit -> app
(** Spectral-element dycore: like SCALE-LES but smaller, with kernel
    domains of differing width on the warp dimension, which makes fused
    guards diverge (the Figure 7 defect population). *)

val fluam : ?dims:Gen.dims -> ?chains:int -> unit -> app
(** Fluctuating hydrodynamics: stencil chains plus particle kernels with
    long dependent integer chains that look memory-bound to the Roofline
    filter but are latency-bound (the Figure 8 anomaly population), and
    many boundary kernels. *)

val mitgcm : ?dims:Gen.dims -> ?pairs:int -> unit -> app
(** Oceanic circulation, non-hydrostatic mode: conjugate-gradient-style
    Laplacian/AXPY pairs with plane (2D) stencils and already-efficient
    block sizes, so both fusion and tuning gains are modest. *)

val awp_odc : ?dims:Gen.dims -> unit -> app
(** Earthquake wave propagation: a few very large already-fused kernels
    (velocity/stress updates over many arrays, radius-2 staggered-grid
    stencils, large thread blocks) whose pairwise fusion exceeds the
    shared-memory capacity — only fission unlocks reuse. *)

val bcalm : ?dims:Gen.dims -> unit -> app
(** 3D-FDTD with multi-pole dispersion: large multi-output update
    kernels plus pole->field->field chains; fission followed by
    per-component pipeline fusion removes the intermediate traffic the
    paper highlights. *)

val quickstart_source : string
(** CUDA C text of the quickstart's three kernels ([diffuse], [smooth],
    [relax]), each taking its arrays then [nx], [ny], [nz] and [c]. *)

val quickstart : ?dims:Gen.dims -> unit -> app
(** The three-kernel diffuse/smooth/relax chain from the quickstart
    example, parsed from CUDA C text. Small enough for [dune runtest]
    guards (the bench [smoke] mode uses it to cross-check sequential vs
    block-parallel simulation); not part of {!all}. *)

val all : unit -> app list
(** The six apps at default (bench) sizes, in the paper's Table 1
    order. *)

val by_name : string -> app option
(** Case-insensitive lookup over {!quickstart} (at default dims) plus
    {!all} — every program the command-line drivers accept. *)
