(** Data Dependency Graph and Order-of-Execution Graph (Section 3.2.3,
    Algorithm 1).

    The DDG has a node per kernel invocation and per data array target of
    locality; array->kernel edges express reads, kernel->array edges
    express writes. The OEG has kernel invocations only; its edges are
    the inter-kernel precedences that the transformation must not
    violate. Both are derived from one {!Kft_schedflow.Schedflow}
    analysis: the DDG from its launch ops' access sets, the OEG from its
    region-refined dependences, the same ones Verify's schedule pass
    checks.

    Two graph optimizations from the paper are implemented:
    - write-read cycles between two kernels are broken by the precedence
      of host invocation order (the OEG heuristic);
    - arrays with several writers get redundant instances (one per
      writer) to relax false dependencies. *)

type invocation = {
  inv_key : string;  (** unique node key: kernel name, "#n"-suffixed on re-launch *)
  inv_kernel : string;
  inv_index : int;
      (** position among the schedule's launches; differs from the host
          schedule position once [cudaMemcpy] ops are present *)
  inv_launch : Kft_cuda.Ast.launch;
}

type node =
  | Kernel_node of invocation
  | Array_node of { base : string; version : int }
      (** [version > 0] marks a redundant instance introduced by the
          multi-writer optimization *)

type closure
(** Reachability closure of the OEG: per invocation index, the set of
    invocations it reaches and the set that reach it, as bitsets. Built
    once by {!of_schedflow} and read-only afterwards, so concurrent
    queries from several domains are safe. *)

type t = {
  ddg : node Kft_graph.Digraph.t;
  invocations : invocation list;  (** in schedule order *)
  versioned_arrays : (string * int) list;
      (** arrays that received redundant instances, with instance count —
          reported to the programmer as changes made to optimize the
          graphs *)
  oeg : int list array;
      (** the OEG, transitively reduced: [oeg.(i)] lists the direct
          successors of the [i]-th invocation, ascending, every one later
          than [i] *)
  closure : closure;  (** reachability of [oeg] *)
}

val invocations : Kft_cuda.Ast.program -> invocation list
(** The schedule's launches as invocations, in order, without analysing
    them: the keys and positions {!of_schedflow} assigns. *)

val of_schedflow : Kft_schedflow.Schedflow.t -> t
(** Algorithm 1 + graph optimizations + OEG derivation. DDG nodes and
    versioning come from the launch ops' read/write sets. The OEG
    contains an edge Ki -> Kj (i earlier than j in the host schedule)
    for every launch pair of [deps]: a dependence whose two end regions
    Schedflow proves disjoint orders nothing, so it constrains no
    fusion. The OEG is reduced transitively by dropping Ki -> Kj
    whenever another direct successor of Ki reaches Kj. Every edge
    points forward in the schedule, the OEG is a DAG, and its closure
    takes one sweep in each direction: O(E·V/63) time and 2·V²/63
    words. *)

val build : Kft_cuda.Ast.program -> t
(** [of_schedflow (Kft_schedflow.Schedflow.analyze prog)]. Never raises
    on unresolved launches: one whose kernel or arguments do not resolve
    reads and writes nothing. *)

(** The two closure queries take invocations by [inv_index], which is
    also their OEG node number; an index outside the schedule's launches
    raises [Invalid_argument]. *)

val oeg_precedes : t -> int -> int -> bool
(** [oeg_precedes t a b]: invocation [a] must execute before [b]
    (transitive). One closure lookup, O(1). Only tests use it. *)

val fusion_feasible : t -> int list -> bool
(** A set of invocations may be fused iff contracting them to one node
    leaves the OEG acyclic (no path leaves the group and comes back).
    Since the OEG is a DAG this holds iff
    (∪ descendants(G)) ∩ (∪ ancestors(G)) \ G = ∅, checked on the
    closure in O(|G|·V/63). Duplicates are harmless. *)

val ddg_dot : t -> string

val oeg_dot : t -> string
(** The OEG's invocations and reduced edges, both in invocation order. *)

val oeg_edge_count : t -> int

