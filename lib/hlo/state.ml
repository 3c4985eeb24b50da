(** Mutable state threaded through an HLO run: the evolving program,
    its profile database (kept coherent across transformations), the
    budget, the report, the clone database that lets later passes
    reuse clones made by earlier ones, the routine edit buffer of the
    stage that is editing the program, the scalar optimizer's memo of
    converged routines, and the facts derived from each routine.

    A stage edits routines once per clone, retargeted caller, inline or
    outlined region.
    On the program's routine list each such edit is a scan or a rewrite
    of the whole list, so a stage would cost O(routines) per edit.  The
    buffer makes each O(1) amortized and rebuilds the list once, when
    the stage ends.

    Every clone and inline pass, and every prune, reads the same facts
    of each routine: its call edges, the names whose address it takes,
    S(E) and P(R).  Most routines are untouched between passes, so the
    facts are derived on first demand and kept, by routine name, for
    as long as the program holds that very routine value ([==], the
    test the optimizer's memo makes too).  Routines are immutable, so
    a fact derived from a value stays true of it; a routine a stage
    rewrote or the optimizer changed is a new value, and its facts are
    derived again.  P(R) also reads the routine's profile block map,
    which clone splits and inline transfers replace, so its entry is
    also keyed by that map's identity. *)

module U = Ucode.Types
module CG = Ucode.Callgraph
module T = Telemetry.Collector

(** What the clone database remembers about a materialized clone: its
    name and the site renaming of its copied body (needed to transfer
    additional profile weight onto it when the clone is reused). *)
type clone_entry = {
  ce_name : string;
  ce_site_map : (U.site * U.site) list;
}

(* The routines in program order in [slots.(0 .. len - 1)].  [index]
   holds one binding per slot, bound from the last slot to the first,
   so [Hashtbl.find] answers with the first definition of a name and
   [Hashtbl.find_all] with every slot of it. *)
type edits = {
  mutable slots : U.routine array;
  mutable len : int;
  index : (string, int) Hashtbl.t;
}

(* The facts of one routine value, each derived on first demand.
   [f_usage] holds P(R) with the key it was derived under: whether the
   profile was in use, and the routine's block map (the empty map when
   not in use). *)
type facts = {
  f_routine : U.routine;
  mutable f_edges : CG.edge list option;
  mutable f_addresses : string list option;
  mutable f_contexts : Summaries.context_value list U.Int_map.t option;
  mutable f_usage :
    (bool * float U.Int_map.t * Summaries.param_usage) option;
}

(* [hits] and [misses] are counted only under a telemetry collector,
   so a compile without one pays a single branch per lookup;
   [Driver.run] publishes them once, when the run ends. *)
type fact_table = {
  entries : (string, facts) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type t = {
  config : Config.t;
  mutable program : U.program;
  mutable profile : Ucode.Profile.t;
  budget : Budget.t;
  report : Report.t;
  clone_db : (string, clone_entry) Hashtbl.t;  (** spec key -> entry *)
  mutable next_clone_id : int;
  mutable stop : bool;  (** set when [max_operations] is reached *)
  mutable edits : edits option;
  memo : Opt.Pipeline.memo;
  facts : fact_table;
}

let create (config : Config.t) ~memo ~(program : U.program)
    ~(profile : Ucode.Profile.t) : t =
  let report = Report.create () in
  report.Report.cost_before <- Ucode.Size.program_cost program;
  { config; program; profile;
    budget = Budget.create config ~initial_cost:(Ucode.Size.program_cost program);
    report; clone_db = Hashtbl.create 32; next_clone_id = 0;
    stop = (match config.Config.max_operations with
           | Some cap -> cap <= 0
           | None -> false);
    edits = None; memo;
    facts = { entries = Hashtbl.create 64; hits = 0; misses = 0 } }

(* ------------------------------------------------------------------ *)
(* The edit buffer.                                                    *)

let open_edits (p : U.program) : edits =
  let slots = Array.of_list p.U.p_routines in
  let len = Array.length slots in
  let index = Hashtbl.create (2 * len + 16) in
  for i = len - 1 downto 0 do
    Hashtbl.add index slots.(i).U.r_name i
  done;
  { slots; len; index }

let with_edits (st : t) f =
  match st.edits with
  | Some _ -> f ()
  | None ->
    let e = open_edits st.program in
    st.edits <- Some e;
    Fun.protect f ~finally:(fun () ->
        st.edits <- None;
        st.program <-
          { st.program with U.p_routines = List.init e.len (Array.get e.slots) })

let buffer (st : t) =
  match st.edits with
  | Some e -> e
  | None -> invalid_arg "State: no edit stage is open"

let find_routine (st : t) name =
  let e = buffer st in
  match Hashtbl.find_opt e.index name with
  | Some i -> Some e.slots.(i)
  | None -> None

let find_routine_exn (st : t) name =
  match find_routine st name with
  | Some r -> r
  | None -> invalid_arg ("find_routine: no routine named " ^ name)

let update_routine (st : t) (r : U.routine) =
  let e = buffer st in
  match Hashtbl.find_all e.index r.U.r_name with
  | [] -> invalid_arg ("update_routine: unknown " ^ r.U.r_name)
  | slots -> List.iter (fun i -> e.slots.(i) <- r) slots

let add_routine (st : t) (r : U.routine) =
  let e = buffer st in
  if Hashtbl.mem e.index r.U.r_name then
    invalid_arg ("add_routine: duplicate " ^ r.U.r_name);
  if e.len = Array.length e.slots then begin
    let grown = Array.make (max 16 (2 * e.len)) r in
    Array.blit e.slots 0 grown 0 e.len;
    e.slots <- grown
  end;
  e.slots.(e.len) <- r;
  Hashtbl.add e.index r.U.r_name e.len;
  e.len <- e.len + 1

(* ------------------------------------------------------------------ *)
(* Per-routine facts.                                                  *)

let facts_of (st : t) (r : U.routine) =
  match Hashtbl.find_opt st.facts.entries r.U.r_name with
  | Some f when f.f_routine == r -> f
  | _ ->
    let f = { f_routine = r; f_edges = None; f_addresses = None;
              f_contexts = None; f_usage = None } in
    Hashtbl.replace st.facts.entries r.U.r_name f;
    f

let note_hit (st : t) =
  if T.enabled () then st.facts.hits <- st.facts.hits + 1

let note_miss (st : t) =
  if T.enabled () then st.facts.misses <- st.facts.misses + 1

let call_edges (st : t) (r : U.routine) =
  let f = facts_of st r in
  match f.f_edges with
  | Some es -> note_hit st; es
  | None ->
    note_miss st;
    let es = CG.edges_of_routine r in
    f.f_edges <- Some es;
    es

let address_refs (st : t) (r : U.routine) =
  let f = facts_of st r in
  match f.f_addresses with
  | Some ns -> note_hit st; ns
  | None ->
    note_miss st;
    let ns =
      List.concat_map
        (fun (b : U.block) ->
          List.filter_map
            (function U.Faddr (_, n) -> Some n | _ -> None)
            b.U.b_instrs)
        r.U.r_blocks
    in
    f.f_addresses <- Some ns;
    ns

let edge_contexts (st : t) (r : U.routine) =
  let f = facts_of st r in
  match f.f_contexts with
  | Some c -> note_hit st; c
  | None ->
    note_miss st;
    let c = Summaries.edge_contexts r in
    f.f_contexts <- Some c;
    c

let param_usage (st : t) (r : U.routine) =
  let f = facts_of st r in
  let profile = st.profile in
  let profiled =
    st.config.Config.use_profile && not (Ucode.Profile.is_empty profile)
  in
  let blocks =
    if not profiled then U.Int_map.empty
    else
      match U.String_map.find_opt r.U.r_name profile.Ucode.Profile.blocks with
      | Some m -> m
      | None -> U.Int_map.empty
  in
  match f.f_usage with
  | Some (p, b, u) when p = profiled && b == blocks -> note_hit st; u
  | _ ->
    note_miss st;
    let u = Summaries.param_usage ~config:st.config ~profile r in
    f.f_usage <- Some (profiled, blocks, u);
    u

let drop_facts (st : t) name = Hashtbl.remove st.facts.entries name

let publish_fact_counts (st : t) =
  if T.enabled () then begin
    T.count "hlo.facts.hits" st.facts.hits;
    T.count "hlo.facts.misses" st.facts.misses
  end

(* ------------------------------------------------------------------ *)
(* Sites, clone names and operations.                                  *)

let fresh_site (st : t) : U.site =
  let s = st.program.U.p_next_site in
  st.program <- { st.program with U.p_next_site = s + 1 };
  s

let fresh_clone_name (st : t) base =
  let id = st.next_clone_id in
  st.next_clone_id <- id + 1;
  Printf.sprintf "%s__clone%d" base id

(** Record one operation (an inline or a clone replacement) and trip
    the stop flag once the configured operation cap is hit. *)
let note_operation (st : t) (op : Report.operation) : unit =
  st.report.Report.operations <- op :: st.report.Report.operations;
  (match op with
  | Report.Op_inline _ -> st.report.Report.inlines <- st.report.Report.inlines + 1
  | Report.Op_clone_replace _ ->
    st.report.Report.clone_replacements <- st.report.Report.clone_replacements + 1);
  match st.config.Config.max_operations with
  | Some cap when Report.total_operations st.report >= cap -> st.stop <- true
  | _ -> ()

(** May HLO transform anything more right now? *)
let running (st : t) = not st.stop
