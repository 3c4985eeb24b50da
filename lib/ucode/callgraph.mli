(** Call-graph construction, strongly connected components, and the
    call-site classification of the paper's Figure 5.

    Edges are individual call *sites*, not collapsed caller/callee
    pairs: each site carries its own profile weight and calling
    context.

    {!build} makes one {!Index} of the program and, in one pass over
    the edges, fills per-routine edge lists in arrays by routine id;
    {!incoming} and {!outgoing} hash the name once and read a slot.
    {!sccs} runs Tarjan on ids with int arrays.  No hash-table order
    reaches a result: edge lists follow [cg_edges], and SCC roots are
    visited in [p_routines] order. *)

type edge = {
  e_caller : string;
  e_site : Types.site;
  e_block : Types.label;  (** caller block containing the site *)
  e_callee : Types.callee;
  e_args : Types.reg list;
  e_dst : Types.reg option;
}

(** The edge lists by routine id, read through {!incoming} and
    {!outgoing}. *)
type adjacency

type t = {
  cg_program : Types.program;
  cg_index : Index.t;  (** the routines of [cg_program] by name *)
  cg_edges : edge list;  (** in program order *)
  cg_adjacency : adjacency;
}

val build : Types.program -> t

(** The routine of [cg_program] with this name, read from [cg_index]:
    the answer of {!Types.find_routine} without its list scan. *)
val routine : t -> string -> Types.routine option

(** Incoming direct-call edges of a routine, in program order; [[]]
    for a name no routine of [cg_program] has (a builtin). *)
val incoming : t -> string -> edge list

(** Outgoing edges (direct and indirect) of every routine of the name,
    in program order; [[]] for a name no routine has. *)
val outgoing : t -> string -> edge list

(** Strongly connected components of the direct-call graph, bottom-up:
    every component appears after the components it calls into. *)
val sccs : t -> string list list

(** Routine names ordered callees-first (concatenated {!sccs}). *)
val bottom_up_order : t -> string list

(** The Figure 5 categories. *)
type site_class =
  | External      (** callee not visible: builtins / library routines *)
  | Indirect_call (** callee computed at run time *)
  | Cross_module  (** direct call into another module *)
  | Within_module (** direct call within the same module *)
  | Recursive     (** direct call within the caller's SCC *)

val site_class_name : site_class -> string
val all_site_classes : site_class list
val classify_edge : t -> edge -> site_class

(** Histogram over all sites, in {!all_site_classes} order. *)
val classify : t -> (site_class * int) list

val total_sites : t -> int
