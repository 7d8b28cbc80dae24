(** Data Dependency Graph and Order-of-Execution Graph (Section 3.2.3,
    Algorithm 1).

    The DDG has a node per kernel invocation and per data array target of
    locality; array->kernel edges express reads, kernel->array edges
    express writes. The OEG has kernel invocations only; its edges are
    the inter-kernel precedences that the transformation must not
    violate.

    Two graph optimizations from the paper are implemented:
    - write-read cycles between two kernels are broken by the precedence
      of host invocation order (the OEG heuristic);
    - arrays with several writers get redundant instances (one per
      writer) to relax false dependencies. *)

type invocation = {
  inv_key : string;  (** unique node key: kernel name, "#n"-suffixed on re-launch *)
  inv_kernel : string;
  inv_index : int;  (** position in the host schedule *)
  inv_launch : Kft_cuda.Ast.launch;
}

type node =
  | Kernel_node of invocation
  | Array_node of { base : string; version : int }
      (** [version > 0] marks a redundant instance introduced by the
          multi-writer optimization *)

type closure
(** Reachability closure of the OEG: per invocation, the set of
    invocations it reaches and the set that reach it, as bitsets. Built
    once by {!build} and read-only afterwards, so concurrent queries from
    several domains are safe. *)

type t = {
  ddg : node Kft_graph.Digraph.t;
  oeg : node Kft_graph.Digraph.t;
  invocations : invocation list;  (** in schedule order *)
  versioned_arrays : (string * int) list;
      (** arrays that received redundant instances, with instance count —
          reported to the programmer as changes made to optimize the
          graphs *)
  closure : closure;
      (** reachability of [oeg] as built; editing [oeg] afterwards does
          not update it *)
}

val build : Kft_cuda.Ast.program -> t
(** Algorithm 1 + graph optimizations + OEG derivation. The OEG contains
    an edge Ki -> Kj (i earlier than j in the host schedule) for every
    RAW, WAR or WAW pair between the two invocations, reduced
    transitively. Every edge therefore points forward in the schedule,
    the OEG is a DAG, and its closure takes one sweep in each direction:
    O(E·V/63) time and 2·V²/63 words. *)

val arrays_touched : Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> (string list * string list)
(** (read host arrays, written host arrays) of one launch. *)

val oeg_precedes : t -> string -> string -> bool
(** [oeg_precedes t a b]: invocation [a] must execute before [b]
    (transitive). One closure lookup, O(1). Raises
    {!Kft_graph.Digraph.No_such_node} when [a <> b] and either is not an
    invocation key. *)

val fusion_feasible : t -> string list -> bool
(** A set of invocation keys may be fused iff contracting them to one
    node leaves the OEG acyclic (no path leaves the group and comes
    back). Since the OEG is a DAG this holds iff
    (∪ descendants(G)) ∩ (∪ ancestors(G)) \ G = ∅, checked on the
    closure in O(|G|·V/63). Keys that are not OEG nodes are ignored;
    duplicates are harmless. *)

val group_has_internal_precedence : t -> string list -> bool
(** True when some pair inside the group is ordered by the OEG — the
    "complex fusion" case of Section 5.5.3. *)

val ddg_dot : t -> string

val oeg_dot : t -> string

val oeg_of_amended_dot : t -> string -> (string * string) list
(** Re-read OEG edges from a programmer-amended DOT file, keeping only
    edges whose endpoints are known invocations (Section 3.2.4). *)
