(** Aggressive outlining — the paper's §5 future work, implemented.

    "We are also contemplating using aggressive outlining as a
    complement to aggressive inlining, to help further focus the global
    optimizer on the truly important stretches of code."

    Outlining extracts *cold* regions of a routine into fresh routines
    of their own.  Under the quadratic compile-cost model this is
    directly profitable — [(n-k)² + k² < n²] — so every stretch of cold
    code moved out both shrinks the hot routine the back end must chew
    on and frees budget the inliner can spend on hot paths.  It also
    removes rarely-executed instructions from the hot routine's
    I-cache footprint.

    A region is outlined when it satisfies all of:
    - every block is cold: executed less than [cold_fraction] times per
      routine entry (profile data required);
    - single entry: exactly one block receives edges from outside;
    - single continuation: all edges leaving the region target one
      external label, and no block in the region returns;
    - at most [max_inputs] live-in registers and at most one register
      defined inside that is live after the region (it becomes the
      outlined routine's return value);
    - at least [min_instructions] instructions (tiny regions are not
      worth a call). *)

module U = Ucode.Types

type config = {
  cold_fraction : float;   (** block colder than this x entry = cold *)
  min_instructions : int;
  max_inputs : int;
}

let default_config =
  { cold_fraction = 0.05; min_instructions = 6; max_inputs = 6 }

type region = {
  rg_blocks : U.Int_set.t;
  rg_entry : U.label;
  rg_exit : U.label;          (** the single external continuation *)
  rg_inputs : U.reg list;     (** live-in registers defined outside *)
  rg_output : U.reg option;   (** single region-defined register live after *)
  rg_size : int;              (** instructions *)
}

(* ------------------------------------------------------------------ *)
(* Region discovery.                                                   *)

let blocks_of (r : U.routine) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (b : U.block) -> Hashtbl.replace tbl b.U.b_id b) r.U.r_blocks;
  tbl

(** Grow the set of cold blocks reachable from [h] through cold
    blocks. *)
let grow_region blocks is_cold h =
  let rec visit seen l =
    if U.Int_set.mem l seen || not (is_cold l) then seen
    else
      let seen = U.Int_set.add l seen in
      match Hashtbl.find_opt blocks l with
      | None -> seen
      | Some (b : U.block) ->
        List.fold_left visit seen (U.term_targets b.U.b_term)
  in
  visit U.Int_set.empty h

(** Validate a grown block set as an outlinable region rooted at [h]. *)
let validate_region (cfg : config) (r : U.routine) (live : Opt.Liveness.t)
    blocks set h : region option =
  let entry_id = (U.entry_block r).U.b_id in
  if U.Int_set.mem entry_id set then None
  else begin
    (* Single entry: external edges may only target h. *)
    let external_entries_ok =
      List.for_all
        (fun (b : U.block) ->
          U.Int_set.mem b.U.b_id set
          || List.for_all
               (fun t -> (not (U.Int_set.mem t set)) || t = h)
               (U.term_targets b.U.b_term))
        r.U.r_blocks
    in
    (* Collect external continuations and returns inside the region. *)
    let exits = ref U.Int_set.empty in
    let has_return = ref false in
    U.Int_set.iter
      (fun l ->
        match Hashtbl.find_opt blocks l with
        | None -> ()
        | Some (b : U.block) -> (
          (match b.U.b_term with U.Return _ -> has_return := true | _ -> ());
          List.iter
            (fun t -> if not (U.Int_set.mem t set) then exits := U.Int_set.add t !exits)
            (U.term_targets b.U.b_term)))
      set;
    let size =
      U.Int_set.fold
        (fun l acc ->
          match Hashtbl.find_opt blocks l with
          | Some (b : U.block) -> acc + List.length b.U.b_instrs + 1
          | None -> acc)
        set 0
    in
    match (external_entries_ok, !has_return, U.Int_set.elements !exits) with
    | true, false, [ exit_label ] when size >= cfg.min_instructions ->
      (* Data flow across the boundary. *)
      let defined_inside =
        U.Int_set.fold
          (fun l acc ->
            match Hashtbl.find_opt blocks l with
            | Some (b : U.block) ->
              List.fold_left
                (fun acc i ->
                  match U.instr_def i with
                  | Some d -> U.Int_set.add d acc
                  | None -> acc)
                acc b.U.b_instrs
            | None -> acc)
          set U.Int_set.empty
      in
      (* Everything live into the region head must arrive as a
         parameter — including registers the region later redefines
         (their initial value flows in from outside on some path). *)
      let inputs = ref [] in
      Opt.Liveness.iter_live_in (fun x -> inputs := x :: !inputs) live h;
      let inputs = List.rev !inputs in
      let outputs =
        U.Int_set.filter (Opt.Liveness.live_in live exit_label) defined_inside
      in
      if List.length inputs > cfg.max_inputs then None
      else begin
        match U.Int_set.elements outputs with
        | [] ->
          Some { rg_blocks = set; rg_entry = h; rg_exit = exit_label;
                 rg_inputs = inputs; rg_output = None; rg_size = size }
        | [ out ] ->
          Some { rg_blocks = set; rg_entry = h; rg_exit = exit_label;
                 rg_inputs = inputs; rg_output = Some out; rg_size = size }
        | _ -> None
      end
    | _ -> None
  end

(** All outlinable regions of a routine, best (largest) first,
    non-overlapping.  [basis] picks the reference count the
    [cold_fraction] cut is relative to: the routine's entry count (the
    §5 outliner) or its hottest block (region inlining, where
    the point is to split a routine with one dominant path). *)
let find_regions ?(config = default_config) ?(basis = `Entry)
    ~(profile : Ucode.Profile.t) (r : U.routine) : region list =
  if Ucode.Profile.is_empty profile then []
  else begin
    let count = Ucode.Profile.block_counts profile r.U.r_name in
    let reference =
      match basis with
      | `Entry -> count (U.entry_block r).U.b_id
      | `Hottest ->
        List.fold_left
          (fun acc (b : U.block) -> Float.max acc (count b.U.b_id))
          0.0 r.U.r_blocks
    in
    if reference <= 0.0 then []
    else begin
      let is_cold l = count l < config.cold_fraction *. reference in
      let blocks = blocks_of r in
      let live = Opt.Liveness.compute r in
      let candidates =
        List.filter_map
          (fun (b : U.block) ->
            if is_cold b.U.b_id then
              let set = grow_region blocks is_cold b.U.b_id in
              validate_region config r live blocks set b.U.b_id
            else None)
          r.U.r_blocks
      in
      let ranked =
        List.stable_sort (fun a b -> compare b.rg_size a.rg_size) candidates
      in
      (* Keep non-overlapping regions greedily. *)
      let taken = ref U.Int_set.empty in
      List.filter
        (fun rg ->
          if U.Int_set.is_empty (U.Int_set.inter rg.rg_blocks !taken) then begin
            taken := U.Int_set.union rg.rg_blocks !taken;
            true
          end
          else false)
        ranked
    end
  end

(* ------------------------------------------------------------------ *)
(* Extraction.                                                         *)

(** Outline one region out of [r].  Returns the shrunk routine and the
    new (module-local) routine holding the region. *)
let extract (st : State.t) (r : U.routine) (rg : region) :
    U.routine * U.routine =
  let out_name = Printf.sprintf "%s__cold%d" r.U.r_name rg.rg_entry in
  (* The outlined routine: the region's blocks, with fresh sites for
     copied calls, region inputs as parameters, and every exit edge
     rewritten into a return of the output (or nothing). *)
  let region_blocks =
    List.filter (fun (b : U.block) -> U.Int_set.mem b.U.b_id rg.rg_blocks)
      r.U.r_blocks
  in
  let region_blocks =
    if Chaos.enabled Chaos.Region_lost_cold_path then
      (* Keep the region's control flow but lose the entry block's
         effects.  Registers stay in range, so the residue still
         validates — only the oracle can tell. *)
      List.map
        (fun (b : U.block) ->
          if b.U.b_id = rg.rg_entry then { b with U.b_instrs = [] } else b)
        region_blocks
    else region_blocks
  in
  let renew_sites (b : U.block) =
    { b with
      U.b_instrs =
        List.map
          (function
            | U.Call c -> U.Call { c with U.c_site = State.fresh_site st }
            | i -> i)
          b.U.b_instrs }
  in
  let rewrite_exit (b : U.block) =
    let ret = U.Return rg.rg_output in
    match b.U.b_term with
    | U.Jump t when t = rg.rg_exit -> { b with U.b_term = ret }
    | U.Branch (_c, t1, t2) when t1 = rg.rg_exit && t2 = rg.rg_exit ->
      (* Both arms leave (necessarily to the single continuation). *)
      { b with U.b_term = ret }
    | _ -> b
  in
  (* Mixed branches (one arm in, one arm out) get routed through a stub
     block that returns. *)
  let stub_label = r.U.r_next_label in
  let needs_stub = ref false in
  let route_mixed (b : U.block) =
    match b.U.b_term with
    | U.Branch (c, t1, t2) when t1 = rg.rg_exit || t2 = rg.rg_exit ->
      needs_stub := true;
      let fix t = if t = rg.rg_exit then stub_label else t in
      { b with U.b_term = U.Branch (c, fix t1, fix t2) }
    | _ -> b
  in
  let out_blocks =
    List.map (fun b -> route_mixed (rewrite_exit (renew_sites b))) region_blocks
  in
  let out_blocks =
    if !needs_stub then
      out_blocks
      @ [ { U.b_id = stub_label; U.b_instrs = [];
            U.b_term = U.Return rg.rg_output } ]
    else out_blocks
  in
  (* The outlined routine's entry must be its first block. *)
  let out_blocks =
    let entry, rest =
      List.partition (fun (b : U.block) -> b.U.b_id = rg.rg_entry) out_blocks
    in
    entry @ rest
  in
  let outlined =
    { U.r_name = out_name; r_module = r.U.r_module; r_params = rg.rg_inputs;
      r_blocks = out_blocks; r_next_reg = r.U.r_next_reg;
      r_next_label = stub_label + 1;
      r_attrs = { U.default_attrs with U.a_no_inline = true };
      r_linkage = U.Module_local; r_origin = U.From_source }
  in
  (* The caller: region blocks replaced by one call block. *)
  let call_block =
    { U.b_id = rg.rg_entry;
      U.b_instrs =
        [ U.Call
            { U.c_dst = rg.rg_output; c_callee = U.Direct out_name;
              c_args = rg.rg_inputs; c_site = State.fresh_site st } ];
      U.b_term = U.Jump rg.rg_exit }
  in
  let kept =
    List.filter_map
      (fun (b : U.block) ->
        if b.U.b_id = rg.rg_entry then Some call_block
        else if U.Int_set.mem b.U.b_id rg.rg_blocks then None
        else Some b)
      r.U.r_blocks
  in
  ({ r with U.r_blocks = kept }, outlined)

(** Apply [regions] (stated in terms of [name]'s labels) one at a
    time, re-fetching the evolving routine from the open edit buffer.
    Returns the routines extracted, in the order they were added. *)
let apply_regions (st : State.t) name regions : U.routine list =
  let extracted = ref [] in
  List.iter
    (fun rg ->
      match State.find_routine st name with
      | None -> ()
      | Some current ->
        (* The region is stated in terms of the original routine's
           labels; skip if a previous extraction touched them. *)
        let labels_present =
          U.Int_set.for_all
            (fun l -> U.find_block current l <> None)
            rg.rg_blocks
        in
        if labels_present then begin
          let shrunk, outlined = extract st current rg in
          State.update_routine st shrunk;
          State.add_routine st outlined;
          if Telemetry.Collector.enabled () then begin
            Telemetry.Collector.count "hlo.outline.regions" 1;
            Telemetry.Collector.count "hlo.outline.instructions" rg.rg_size;
            Telemetry.Collector.decision ~kind:Telemetry.Event.Outline
              ~verdict:Telemetry.Event.Accepted ~context:name
              ~score:(float_of_int rg.rg_size) outlined.U.r_name
          end;
          (* The moved blocks keep their counts, under the new
             routine's name. *)
          let count = Ucode.Profile.block_counts st.State.profile name in
          U.Int_set.iter
            (fun l ->
              st.State.profile <-
                Ucode.Profile.add_block st.State.profile
                  ~routine:outlined.U.r_name ~block:l (count l))
            rg.rg_blocks;
          extracted := outlined :: !extracted
        end)
    regions;
  List.rev !extracted

(** Outline every profitable cold region in the program.  Returns the
    number of regions extracted. *)
let run_pass ?(config = default_config) (st : State.t) : int =
  let routines = st.State.program.U.p_routines in
  State.with_edits st @@ fun () ->
  List.fold_left
    (fun acc (r : U.routine) ->
      let regions = find_regions ~config ~profile:st.State.profile r in
      acc + List.length (apply_regions st r.U.r_name regions))
    0 routines

(** Outline the cold regions of one routine, coldness measured against
    its hottest block — the region inliner's entry point for
    splitting an over-budget callee.  Returns the routines extracted,
    in the order they were added.  Inside an open stage (the inliner's)
    the edits join that stage's buffer. *)
let outline_routine ?(config = default_config) (st : State.t) name :
    U.routine list =
  State.with_edits st @@ fun () ->
  match State.find_routine st name with
  | None -> []
  | Some r ->
    let regions =
      find_regions ~config ~basis:`Hottest ~profile:st.State.profile r
    in
    apply_regions st name regions
