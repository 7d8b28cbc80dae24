(** Directed graphs with string-keyed nodes carrying a payload.

    This is the graph substrate underneath the Data Dependency Graph of
    the paper (Section 3.2.3), the DOT rendering of its
    Order-of-Execution Graph, and the array dependence graph used by
    kernel fission (Algorithm 2). Nodes are
    identified by unique string keys; payloads are arbitrary. Graphs
    only grow: nodes and edges are added, never removed. *)

type 'a t

exception Duplicate_node of string
exception No_such_node of string

val create : unit -> 'a t

val add_node : 'a t -> key:string -> 'a -> unit
(** Raises {!Duplicate_node} if [key] is already present. *)

val ensure_node : 'a t -> key:string -> 'a -> unit
(** Like {!add_node} but a no-op when [key] is already present. *)

val mem_node : 'a t -> string -> bool

val payload : 'a t -> string -> 'a
(** Raises {!No_such_node}. *)

val add_edge : 'a t -> string -> string -> unit
(** [add_edge g a b] adds the edge a->b (idempotent). Both endpoints must
    exist; raises {!No_such_node} otherwise. *)

val mem_edge : 'a t -> string -> string -> bool

val succs : 'a t -> string -> string list
(** Successors in insertion order. *)

val preds : 'a t -> string -> string list

val nodes : 'a t -> string list
(** All node keys in insertion order. *)

val edges : 'a t -> (string * string) list

val node_count : 'a t -> int

val edge_count : 'a t -> int

val iter_nodes : 'a t -> f:(string -> 'a -> unit) -> unit

val components : 'a t -> string list list
(** Weakly connected components, each in BFS order (edges followed in
    either direction) from its first (insertion-order) node; components
    ordered by their first node. This is the traversal of Algorithm 2. *)

val to_dot :
  ?graph_name:string ->
  ?node_attrs:(string -> 'a -> (string * string) list) ->
  ?edge_attrs:(string -> string -> (string * string) list) ->
  'a t ->
  string
(** GraphViz DOT rendering (the paper's DDG/OEG DOT files). *)

