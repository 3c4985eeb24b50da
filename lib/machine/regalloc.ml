(** Linear-scan register allocation for VR32.

    The paper observes that the HP-UX register allocator "has little
    difficulty with the larger routines created by inlining and
    cloning, and for the most part register pressure is not an issue";
    reproducing that requires an allocator that reuses registers across
    non-overlapping live ranges — a naive one-virtual-one-physical
    scheme drowns post-inlining routines in spill traffic and erases
    the very effect being measured.

    Classic linear scan: instructions are numbered in block order, each
    virtual register gets one conservative live interval (extended over
    every block where liveness says it is live-in/out, which safely
    covers loops), intervals are walked in start order and assigned
    from two pools:

    - intervals that span a call site must live in *callee-saved*
      registers (the callee preserves them; the cost is one
      save/restore pair in the callee's prologue/epilogue);
    - other intervals prefer *caller-saved* registers, falling back to
      free callee-saved ones.

    When no compatible register is free, the active interval with the
    furthest end (or the new interval itself) is spilled to a frame
    slot; spilled accesses go through the two reserved scratch
    registers — visible D-cache traffic, exactly the register-pressure
    cost the paper discusses.

    Register convention:
    [r0] zero/unused, [r1] return value, [r2-r15] caller-saved,
    [r16-r28] callee-saved, [r29-r30] scratch, [r31] stack pointer. *)

module U = Ucode.Types

let result_reg = 1
let caller_saved_pool = [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
let callee_saved_pool = [ 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 ]
let scratch1 = 29
let scratch2 = 30
let sp = 31

let is_callee_saved p = p >= 16 && p <= 28

type location = Preg of int | Spill of int  (** frame slot index *)

type t = {
  locations : location U.Int_map.t;
  used_callee_saved : int list;  (** ascending; saved in the prologue *)
  nspills : int;
}

let location t v =
  match U.Int_map.find_opt v t.locations with
  | Some loc -> loc
  | None ->
    invalid_arg (Printf.sprintf "Regalloc.location: unallocated vreg %d" v)

(** Frame size in words: spill slots then the callee-saved save area. *)
let frame_size t = t.nspills + List.length t.used_callee_saved

(* ------------------------------------------------------------------ *)
(* Live intervals.                                                     *)

type interval = {
  vreg : U.reg;
  start : int;
  stop : int;            (** inclusive *)
  crosses_call : bool;
}

(** Conservative live intervals over the linearized routine. *)
let intervals_of (r : U.routine) : interval list * int list =
  let live = Opt.Liveness.compute r in
  let starts = Hashtbl.create 64 in
  let stops = Hashtbl.create 64 in
  let extend v pos =
    (match Hashtbl.find_opt starts v with
    | Some s when s <= pos -> ()
    | _ -> Hashtbl.replace starts v pos);
    match Hashtbl.find_opt stops v with
    | Some s when s >= pos -> ()
    | _ -> Hashtbl.replace stops v pos
  in
  let call_positions = ref [] in
  (* Position 0 is the prologue, where parameters are defined;
     instructions start at 1 so a call as the very first instruction
     still counts as strictly inside a parameter's interval. *)
  let pos = ref 1 in
  List.iter (fun p -> extend p 0) r.U.r_params;
  List.iter
    (fun (b : U.block) ->
      let block_start = !pos in
      List.iter
        (fun i ->
          List.iter (fun v -> extend v !pos) (U.instr_uses i);
          (match U.instr_def i with Some d -> extend d !pos | None -> ());
          (match i with U.Call _ -> call_positions := !pos :: !call_positions
                      | _ -> ());
          incr pos)
        b.U.b_instrs;
      (* The terminator occupies a position too. *)
      List.iter (fun v -> extend v !pos) (U.term_uses b.U.b_term);
      let block_end = !pos in
      incr pos;
      (* A register live into or out of the block is live across all of
         it — covers values carried around loop back edges. *)
      Opt.Liveness.iter_live_in (fun v -> extend v block_start) live b.U.b_id;
      Opt.Liveness.iter_live_out
        (fun v ->
          extend v block_start;
          extend v block_end)
        live b.U.b_id)
    r.U.r_blocks;
  let calls = List.sort compare !call_positions in
  let crosses start stop =
    List.exists (fun c -> start < c && c < stop) calls
  in
  let ivs =
    Hashtbl.fold
      (fun v start acc ->
        let stop = Hashtbl.find stops v in
        { vreg = v; start; stop; crosses_call = crosses start stop } :: acc)
      starts []
  in
  (List.sort (fun a b -> compare (a.start, a.vreg) (b.start, b.vreg)) ivs, calls)

(* ------------------------------------------------------------------ *)
(* The scan.                                                           *)

let allocate (r : U.routine) : t =
  let ivs, _calls = intervals_of r in
  let locations = ref U.Int_map.empty in
  let used_callee = Hashtbl.create 16 in
  let nspills = ref 0 in
  let free_caller = ref caller_saved_pool in
  let free_callee = ref callee_saved_pool in
  (* Active intervals, kept sorted by [stop] ascending. *)
  let active : interval list ref = ref [] in
  let preg_of iv =
    match U.Int_map.find_opt iv.vreg !locations with
    | Some (Preg p) -> Some p
    | _ -> None
  in
  let release p =
    if is_callee_saved p then free_callee := p :: !free_callee
    else free_caller := p :: !free_caller
  in
  let expire current_start =
    let expired, still =
      List.partition (fun iv -> iv.stop < current_start) !active
    in
    List.iter (fun iv -> Option.iter release (preg_of iv)) expired;
    active := still
  in
  let insert_active iv =
    let rec ins = function
      | [] -> [ iv ]
      | hd :: tl when hd.stop >= iv.stop -> iv :: hd :: tl
      | hd :: tl -> hd :: ins tl
    in
    active := ins !active
  in
  let assign iv p =
    if is_callee_saved p then Hashtbl.replace used_callee p ();
    locations := U.Int_map.add iv.vreg (Preg p) !locations;
    insert_active iv
  in
  let spill_slot () =
    let s = !nspills in
    incr nspills;
    s
  in
  let take pool =
    match !pool with
    | p :: rest ->
      pool := rest;
      Some p
    | [] -> None
  in
  let try_take iv =
    if iv.crosses_call then take free_callee
    else
      match take free_caller with
      | Some p -> Some p
      | None -> take free_callee
  in
  let scan iv =
    expire iv.start;
    match try_take iv with
    | Some p -> assign iv p
    | None ->
      (* Spill the compatible active interval that ends last, if it
         outlives the new one; otherwise spill the new interval. *)
      let compatible other =
        match preg_of other with
        | Some p ->
          if iv.crosses_call then is_callee_saved p else true
        | None -> false
      in
      let victim =
        List.fold_left
          (fun best other ->
            if not (compatible other) then best
            else
              match best with
              | Some b when b.stop >= other.stop -> best
              | _ -> Some other)
          None !active
      in
      (match victim with
      | Some v when v.stop > iv.stop ->
        let p = Option.get (preg_of v) in
        locations := U.Int_map.add v.vreg (Spill (spill_slot ())) !locations;
        active := List.filter (fun o -> o.vreg <> v.vreg) !active;
        assign iv p
      | _ -> locations := U.Int_map.add iv.vreg (Spill (spill_slot ())) !locations)
  in
  List.iter scan ivs;
  { locations = !locations;
    used_callee_saved =
      Hashtbl.fold (fun p () acc -> p :: acc) used_callee [] |> List.sort compare;
    nspills = !nspills }
