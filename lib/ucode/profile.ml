(** The profile database (the paper's "PBO data").

    A training run records, for each routine, how many times each basic
    block executed, and for each call site, how many times it fired —
    and, for indirect sites, a histogram of the routines actually
    invoked.  HLO consults these to rank inline sites, to weigh the
    uses of cloned-in constants, and to penalize sites that sit on
    paths colder than their routine's entry.

    Counts are [float] because inlining and cloning *scale* copied
    counts by the fraction of the callee's executions attributable to
    the transformed sites; conservation of flow matters more than
    integrality. *)

open Types

type t = {
  blocks : float Int_map.t String_map.t;
      (** routine -> block label -> execution count *)
  sites : float Int_map.t;  (** call site -> execution count *)
  targets : (string * float) list Int_map.t;
      (** indirect call site -> (callee, count) histogram *)
}

let empty =
  { blocks = String_map.empty; sites = Int_map.empty; targets = Int_map.empty }

let is_empty t = String_map.is_empty t.blocks && Int_map.is_empty t.sites

let routine_blocks t routine =
  Option.value ~default:Int_map.empty (String_map.find_opt routine t.blocks)

let count_in m block = Option.value ~default:0.0 (Int_map.find_opt block m)

let block_count t ~routine ~block = count_in (routine_blocks t routine) block

(** [block_counts t routine] looks the routine up once; the function it
    returns answers as [block_count t ~routine] for every block. *)
let block_counts t routine = count_in (routine_blocks t routine)

let site_count t site = Option.value ~default:0.0 (Int_map.find_opt site t.sites)

let site_targets t site =
  Option.value ~default:[] (Int_map.find_opt site t.targets)

(** All recorded block counts of one routine, sorted by label; the
    shape the isom layer stores per-module profile fragments in. *)
let blocks_of_routine t routine =
  match String_map.find_opt routine t.blocks with
  | None -> []
  | Some m -> Int_map.bindings m

let entry_count t (r : routine) =
  block_count t ~routine:r.r_name ~block:(entry_block r).b_id

let add_block t ~routine ~block delta =
  let m = Option.value ~default:Int_map.empty (String_map.find_opt routine t.blocks) in
  let v = Option.value ~default:0.0 (Int_map.find_opt block m) +. delta in
  { t with blocks = String_map.add routine (Int_map.add block v m) t.blocks }

let add_site t site delta =
  let v = Option.value ~default:0.0 (Int_map.find_opt site t.sites) +. delta in
  { t with sites = Int_map.add site v t.sites }

let add_target t site callee delta =
  let hist = site_targets t site in
  let hist =
    if List.mem_assoc callee hist then
      List.map
        (fun (n, c) -> if n = callee then (n, c +. delta) else (n, c))
        hist
    else (callee, delta) :: hist
  in
  { t with targets = Int_map.add site hist t.targets }

(* ------------------------------------------------------------------ *)
(* Transferring counts onto copied code.                               *)

(** [transfer_copy t ~from_routine ~into_routine ~block_map ~site_map
    ~factor] credits the copy (described by the renaming maps) with
    [factor] times the counts of the original.  Used when a body is
    inlined at a site that accounts for [factor] of the callee's
    executions, and when a clone captures that fraction of calls. *)
let transfer_copy t ~from_routine ~into_routine ~block_map ~site_map ~factor =
  (* The copied blocks fold into the target's map, which goes back into
     [t] once.  A routine copied into itself reads the map being
     folded, as one [add_block] per block would. *)
  let from = routine_blocks t from_routine in
  let into = routine_blocks t into_routine in
  let self_copy = String.equal from_routine into_routine in
  let copied =
    List.fold_left
      (fun m (old_block, new_block) ->
        let c = count_in (if self_copy then m else from) old_block in
        if c = 0.0 then m
        else Int_map.add new_block (count_in m new_block +. (c *. factor)) m)
      into block_map
  in
  let t =
    if copied == into then t
    else { t with blocks = String_map.add into_routine copied t.blocks }
  in
  List.fold_left
    (fun t (old_site, new_site) ->
      let c = site_count t old_site in
      let t = if c = 0.0 then t else add_site t new_site (c *. factor) in
      match site_targets t old_site with
      | [] -> t
      | hist ->
        List.fold_left
          (fun t (callee, c) ->
            if c = 0.0 then t else add_target t new_site callee (c *. factor))
          t hist)
    t site_map

(** Scale every count attributed to [routine] (blocks and the sites its
    blocks contain) by [factor]; used on the residual original after a
    clone captured part of its traffic. *)
let scale_routine t (r : routine) factor =
  let blocks =
    String_map.update r.r_name
      (Option.map (Int_map.map (fun c -> c *. factor)))
      t.blocks
  in
  let site_ids =
    List.concat_map
      (fun b ->
        List.filter_map
          (function Call c -> Some c.c_site | _ -> None)
          b.b_instrs)
      r.r_blocks
  in
  let scale_site acc site =
    let acc =
      { acc with
        sites =
          Int_map.update site (Option.map (fun c -> c *. factor)) acc.sites }
    in
    { acc with
      targets =
        Int_map.update site
          (Option.map (List.map (fun (n, c) -> (n, c *. factor))))
          acc.targets }
  in
  List.fold_left scale_site { t with blocks } site_ids

(** Rename profile entries when a routine is duplicated wholesale under
    a new name (cloning): the clone receives [factor] of the original's
    counts and the original keeps the rest. *)
let split_for_clone t ~original ~clone_name ~site_map ~factor
    (original_routine : routine) =
  let block_map =
    List.map (fun b -> (b.b_id, b.b_id)) original_routine.r_blocks
  in
  let t =
    transfer_copy t ~from_routine:original ~into_routine:clone_name ~block_map
      ~site_map ~factor
  in
  scale_routine t original_routine (1.0 -. factor)

(* ------------------------------------------------------------------ *)
(* Rendering, for debugging and the profile-dump CLI option.           *)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  String_map.iter
    (fun routine m ->
      Fmt.pf ppf "%s:@," routine;
      Int_map.iter (fun b c -> Fmt.pf ppf "  block %d: %.0f@," b c) m)
    t.blocks;
  Int_map.iter (fun s c -> Fmt.pf ppf "site %d: %.0f@," s c) t.sites;
  Fmt.pf ppf "@]"
