(** Call graph construction, SCCs and call-site classification.

    The call graph drives everything HLO does: edges are individual
    call *sites* (not collapsed caller/callee pairs) because each site
    carries its own profile weight and its own calling context.  The
    classification below is the one used in the paper's Figure 5. *)

open Types

type edge = {
  e_caller : string;
  e_site : site;
  e_block : label;            (** block of the caller containing the site *)
  e_callee : callee;
  e_args : reg list;
  e_dst : reg option;
}

(* The edges of each routine id, both lists in program order; [succs]
   holds, per caller, the ids of its direct callees that are routines,
   one per site. *)
type adjacency = {
  incoming : edge list array;
  outgoing : edge list array;
  succs : int list array;
}

type t = {
  cg_program : program;
  cg_index : Index.t;                        (** routines of [cg_program] by name *)
  cg_edges : edge list;                      (** in program order *)
  cg_adjacency : adjacency;
}

let edges_of_routine (r : routine) =
  List.concat_map
    (fun b ->
      List.filter_map
        (function
          | Call c ->
            Some { e_caller = r.r_name; e_site = c.c_site; e_block = b.b_id;
                   e_callee = c.c_callee; e_args = c.c_args; e_dst = c.c_dst }
          | _ -> None)
        b.b_instrs)
    r.r_blocks

let build (p : program) : t =
  let index = Index.of_program p in
  let n = Index.size index in
  let incoming = Array.make n [] in
  let outgoing = Array.make n [] in
  let succs = Array.make n [] in
  let edges = List.concat_map edges_of_routine p.p_routines in
  (* Consing from the last edge back leaves every list in program
     order.  Every caller is a routine of [p], so it has an id. *)
  List.iter
    (fun e ->
      let caller = Option.get (Index.id index e.e_caller) in
      outgoing.(caller) <- e :: outgoing.(caller);
      match e.e_callee with
      | Direct n -> (
        match Index.id index n with
        | Some callee ->
          incoming.(callee) <- e :: incoming.(callee);
          succs.(caller) <- callee :: succs.(caller)
        | None -> ())
      | Indirect _ -> ())
    (List.rev edges);
  { cg_program = p; cg_index = index; cg_edges = edges;
    cg_adjacency = { incoming; outgoing; succs } }

let routine t name = Index.find t.cg_index name

let edges_of table t name =
  match Index.id t.cg_index name with Some i -> table.(i) | None -> []

let incoming t name = edges_of t.cg_adjacency.incoming t name

let outgoing t name = edges_of t.cg_adjacency.outgoing t name

(* ------------------------------------------------------------------ *)
(* Strongly connected components (Tarjan), used both to classify
   recursive call sites and to produce the bottom-up order in which the
   inliner schedules its work.  Vertices are routine ids, so every
   table is an int array. *)

let scc_id_lists (t : t) : int list list =
  let succs = t.cg_adjacency.succs in
  let n = Array.length succs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- Int.min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- Int.min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      result := pop [] :: !result
    end
  in
  (* Ids number the names in program order, so this visits the
     routines of [p_routines] in order, each name once. *)
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* Tarjan pops an SCC only after every SCC it can reach has been
     popped, so components are produced callees-first; [result]
     accumulates them in reverse, hence the final [List.rev] restores
     the bottom-up order. *)
  List.rev !result

let sccs (t : t) : string list list =
  let name i = (Index.routine t.cg_index i).r_name in
  List.map (List.map name) (scc_id_lists t)

(** Routine names ordered bottom-up: a routine appears after the
    routines it (transitively) calls, up to cycles. *)
let bottom_up_order t : string list = List.concat (sccs t)

(** The SCC number of each routine id. *)
let scc_ids t : int array =
  let ids = Array.make (Index.size t.cg_index) 0 in
  List.iteri (fun c comp -> List.iter (fun v -> ids.(v) <- c) comp)
    (scc_id_lists t);
  ids

(* ------------------------------------------------------------------ *)
(* Figure 5 call-site classification. *)

type site_class =
  | External      (** callee not visible: builtins / library routines *)
  | Indirect_call (** callee computed at run time *)
  | Cross_module  (** direct call into another module *)
  | Within_module (** direct call to another routine of the same module *)
  | Recursive     (** direct call within the caller's SCC (self or mutual) *)

let site_class_name = function
  | External -> "external"
  | Indirect_call -> "indirect"
  | Cross_module -> "cross-module"
  | Within_module -> "within-module"
  | Recursive -> "recursive"

let all_site_classes =
  [ External; Indirect_call; Cross_module; Within_module; Recursive ]

let classify_edge_with scc t (e : edge) : site_class =
  match e.e_callee with
  | Indirect _ -> Indirect_call
  | Direct n -> (
    let index = t.cg_index in
    match Index.id index n with
    | None -> External
    | Some callee ->
      let caller = Option.get (Index.id index e.e_caller) in
      if n = e.e_caller || scc.(caller) = scc.(callee) then Recursive
      else if
        (Index.routine index caller).r_module
        = (Index.routine index callee).r_module
      then Within_module
      else Cross_module)

let classify_edge t e = classify_edge_with (scc_ids t) t e

(** Histogram of site classes over the whole program. *)
let classify t : (site_class * int) list =
  let ids = scc_ids t in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let c = classify_edge_with ids t e in
      Hashtbl.replace counts c (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
    t.cg_edges;
  List.map
    (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt counts c)))
    all_site_classes

let total_sites t = List.length t.cg_edges
