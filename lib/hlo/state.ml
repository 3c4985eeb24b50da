(** Mutable state threaded through an HLO run: the evolving program,
    its profile database (kept coherent across transformations), the
    budget, the report, the clone database that lets later passes
    reuse clones made by earlier ones, the routine edit buffer of the
    stage that is editing the program, and the scalar optimizer's memo
    of converged routines.

    A stage edits routines once per clone, retargeted caller, inline or
    outlined region.
    On the program's routine list each such edit is a scan or a rewrite
    of the whole list, so a stage would cost O(routines) per edit.  The
    buffer makes each O(1) amortized and rebuilds the list once, when
    the stage ends. *)

module U = Ucode.Types

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
    edits = None; memo }

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
