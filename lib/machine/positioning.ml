(** Profile-guided code positioning, after Pettis & Hansen (PLDI'90) —
    reference [12] of the paper, and the other half of HP's PBO story:
    once inlining has decided *what* code exists, positioning decides
    *where* it sits, so that callers and callees share I-cache lines
    instead of conflicting.

    The classic "closest is best" chain merge over the dynamic call
    graph: every routine starts as a singleton chain; the undirected
    call-graph edges are visited by descending dynamic weight and the
    chains containing the two endpoints are concatenated (heaviest
    caller/callee pairs end up adjacent).  Chains are then emitted by
    total weight, the entry routine's chain first. *)

module U = Ucode.Types

(** Dynamic weight of every undirected caller/callee pair. *)
let edge_weights (p : U.program) (profile : Ucode.Profile.t) :
    ((string * string) * float) list =
  let index = Ucode.Index.of_program p in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : U.routine) ->
      List.iter
        (fun (_, (c : U.call)) ->
          let weight = Ucode.Profile.site_count profile c.U.c_site in
          let targets =
            match c.U.c_callee with
            | U.Direct n -> if Ucode.Index.mem index n then [ (n, weight) ] else []
            | U.Indirect _ ->
              (* Indirect sites contribute through their measured
                 target histogram. *)
              Ucode.Profile.site_targets profile c.U.c_site
          in
          List.iter
            (fun (callee, w) ->
              if w > 0.0 && callee <> r.U.r_name then begin
                let key =
                  if r.U.r_name < callee then (r.U.r_name, callee)
                  else (callee, r.U.r_name)
                in
                Hashtbl.replace tbl key
                  (w +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
              end)
            targets)
        (U.calls_of_routine r))
    p.U.p_routines;
  Hashtbl.fold (fun k w acc -> (k, w) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare b a with 0 -> compare ka kb | n -> n)

(** Routine order for layout: heaviest-edge chain merging. *)
let order (p : U.program) (profile : Ucode.Profile.t) : string list =
  (* chain_of maps a routine to its chain id; chains maps id -> names
     in order. *)
  let chain_of = Hashtbl.create 64 in
  let chains = Hashtbl.create 64 in
  let weights = Hashtbl.create 64 in
  List.iteri
    (fun i (r : U.routine) ->
      Hashtbl.replace chain_of r.U.r_name i;
      Hashtbl.replace chains i [ r.U.r_name ];
      Hashtbl.replace weights i 0.0)
    p.U.p_routines;
  List.iter
    (fun ((a, b), w) ->
      let ca = Hashtbl.find_opt chain_of a in
      let cb = Hashtbl.find_opt chain_of b in
      match (ca, cb) with
      | Some ca, Some cb when ca <> cb ->
        (* Merge the lighter chain after the heavier one, so the
           hottest code gravitates to the front of the image. *)
        let la = Hashtbl.find chains ca and lb = Hashtbl.find chains cb in
        let wa = Hashtbl.find weights ca and wb = Hashtbl.find weights cb in
        let merged = if wa >= wb then la @ lb else lb @ la in
        Hashtbl.replace chains ca merged;
        Hashtbl.remove chains cb;
        List.iter (fun n -> Hashtbl.replace chain_of n ca) lb;
        Hashtbl.replace weights ca
          (w +. Hashtbl.find weights ca +. Hashtbl.find weights cb);
        Hashtbl.remove weights cb
      | _ -> ())
    (edge_weights p profile);
  (* Emit: the chain containing main first, then by descending chain
     weight, then the stragglers in program order. *)
  let main_chain = Hashtbl.find_opt chain_of p.U.p_main in
  let all =
    Hashtbl.fold (fun id names acc -> (id, names) :: acc) chains []
  in
  let ranked =
    List.sort
      (fun (ia, _) (ib, _) ->
        let w i = Hashtbl.find weights i in
        let main_first i = if Some i = main_chain then 1 else 0 in
        match compare (main_first ib) (main_first ia) with
        | 0 -> (
          match compare (w ib) (w ia) with 0 -> compare ia ib | n -> n)
        | n -> n)
      all
  in
  List.concat_map snd ranked

(** Reorder a program's routines for layout (no semantic change: names
    and references are unaffected, only image placement). *)
let apply (p : U.program) (profile : Ucode.Profile.t) : U.program =
  let names = order p profile in
  let rank = Hashtbl.create 64 in
  List.iteri (fun i n -> Hashtbl.replace rank n i) names;
  let routines =
    List.stable_sort
      (fun (a : U.routine) (b : U.routine) ->
        compare
          (Option.value ~default:max_int (Hashtbl.find_opt rank a.U.r_name))
          (Option.value ~default:max_int (Hashtbl.find_opt rank b.U.r_name)))
      p.U.p_routines
  in
  { p with U.p_routines = routines }
