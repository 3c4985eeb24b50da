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

type t = {
  cg_program : program;
  cg_index : Index.t;                        (** routines of [cg_program] by name *)
  cg_edges : edge list;                      (** in program order *)
  cg_callers : edge list String_map.t;       (** callee name -> incoming edges *)
  cg_callees : edge list String_map.t;       (** caller name -> outgoing edges *)
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
  let edges = List.concat_map edges_of_routine p.p_routines in
  let add key e m =
    String_map.update key
      (function None -> Some [ e ] | Some es -> Some (e :: es))
      m
  in
  let callers, callees =
    List.fold_left
      (fun (callers, callees) e ->
        let callers =
          match e.e_callee with
          | Direct n -> add n e callers
          | Indirect _ -> callers
        in
        (callers, add e.e_caller e callees))
      (String_map.empty, String_map.empty) edges
  in
  let rev = String_map.map List.rev in
  { cg_program = p; cg_index = Index.of_program p; cg_edges = edges;
    cg_callers = rev callers; cg_callees = rev callees }

let routine t name = Index.find t.cg_index name

let incoming t name =
  Option.value ~default:[] (String_map.find_opt name t.cg_callers)

let outgoing t name =
  Option.value ~default:[] (String_map.find_opt name t.cg_callees)

(* ------------------------------------------------------------------ *)
(* Strongly connected components (Tarjan), used both to classify
   recursive call sites and to produce the bottom-up order in which the
   inliner schedules its work. *)

let sccs (t : t) : string list list =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let succs name =
    outgoing t name
    |> List.filter_map (fun e ->
           match e.e_callee with
           | Direct n when Index.mem t.cg_index n -> Some n
           | Direct _ | Indirect _ -> None)
  in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      result := pop [] :: !result
    end
  in
  List.iter
    (fun (r : routine) ->
      if not (Hashtbl.mem index r.r_name) then strongconnect r.r_name)
    t.cg_program.p_routines;
  (* Tarjan pops an SCC only after every SCC it can reach has been
     popped, so components are produced callees-first; [result]
     accumulates them in reverse, hence the final [List.rev] restores
     the bottom-up order. *)
  List.rev !result

(** Routine names ordered bottom-up: a routine appears after the
    routines it (transitively) calls, up to cycles. *)
let bottom_up_order t : string list = List.concat (sccs t)

(** Map from routine name to the id of its SCC. *)
let scc_ids t : int String_map.t =
  List.fold_left
    (fun (i, m) comp ->
      (i + 1, List.fold_left (fun m name -> String_map.add name i m) m comp))
    (0, String_map.empty) (sccs t)
  |> snd

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

let classify_edge_with ids t (e : edge) : site_class =
  match e.e_callee with
  | Indirect _ -> Indirect_call
  | Direct n -> (
    match routine t n with
    | None -> External
    | Some callee ->
      let same_scc =
        match (String_map.find_opt e.e_caller ids, String_map.find_opt n ids) with
        | Some a, Some b -> a = b
        | _ -> false
      in
      if n = e.e_caller || same_scc then Recursive
      else
        let caller = Index.find_exn t.cg_index e.e_caller in
        if caller.r_module = callee.r_module then Within_module
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
