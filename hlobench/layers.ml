(* Per-layer metrics.  Layer names are the lib/ module names.  A layer
   that a workload does not exercise reports 0. *)

module E = Telemetry.Event

let metrics =
  [ (* minic *)
    ("minic.compile_s", "s"); ("minic.ir_size", "count");
    (* interp *)
    ("interp.train_s", "s"); ("interp.train_steps", "count");
    (* hlo: inclusive time, then self times that partition it *)
    ("hlo.run_s", "s"); ("hlo.driver_s", "s"); ("hlo.clean_s", "s");
    ("hlo.outline_s", "s"); ("hlo.clone_s", "s"); ("hlo.inline_s", "s");
    ("hlo.prune_s", "s"); ("opt.self_s", "s");
    ("hlo.inlines", "count"); ("hlo.clones", "count");
    ("hlo.clone_replacements", "count"); ("hlo.deletions", "count");
    ("hlo.residues", "count"); ("hlo.passes", "count");
    ("hlo.cost_growth_geomean", "ratio"); ("hlo.inline_yield", "ratio");
    ("hlo.clone_db_hit_ratio", "ratio");
    ("hlo.summary_cache_hit_ratio", "ratio");
    (* machine *)
    ("machine.layout_s", "s"); ("machine.sim_s", "s");
    ("machine.instructions", "count"); ("machine.icache_miss_rate", "ratio");
    ("machine.dcache_miss_rate", "ratio");
    ("machine.branch_mispredict_rate", "ratio");
    (* telemetry *)
    ("telemetry.overhead_ratio", "ratio") ]

(* The layer a span's own time belongs to: the bench's spans around
   each public call, and the spans the library emits inside them. *)
let layer_of_span = function
  | "bench.minic" | "minic.parse" | "minic.lower" -> "minic.compile_s"
  | "bench.train" | "interp.train" -> "interp.train_s"
  | "bench.hlo" | "hlo.run" | "hlo.pass" -> "hlo.driver_s"
  | "hlo.clean" -> "hlo.clean_s"
  | "hlo.outline" -> "hlo.outline_s"
  | "hlo.clone" -> "hlo.clone_s"
  | "hlo.inline" -> "hlo.inline_s"
  | "hlo.prune" -> "hlo.prune_s"
  | "bench.layout" | "machine.layout" -> "machine.layout_s"
  | "bench.sim" | "machine.sim" -> "machine.sim_s"
  | name when String.starts_with ~prefix:"opt." name -> "opt.self_s"
  | _ -> "other_s"

(* Self time per layer, in seconds.  A span's self time is its duration
   minus its children's.  Only the main domain counts: a pool worker
   runs while the main domain sits inside the span that started the
   map, so its time is already that span's, and the self times
   partition the traced pass's program wall time. *)
let self_times (spans : E.span list) =
  let main =
    List.sort
      (fun a b -> Float.compare a.E.sp_start_us b.E.sp_start_us)
      (List.filter (fun s -> s.E.sp_domain = 0) spans)
    |> Array.of_list
  in
  let self = Array.map (fun s -> s.E.sp_dur_us) main in
  (* Clock.now_us is strictly increasing, so in start order the most
     recent span one level up is the parent. *)
  let latest_at_depth = Hashtbl.create 8 in
  Array.iteri
    (fun i s ->
      (match Hashtbl.find_opt latest_at_depth (s.E.sp_depth - 1) with
      | Some p when s.E.sp_depth > 0 -> self.(p) <- self.(p) -. s.E.sp_dur_us
      | _ -> ());
      Hashtbl.replace latest_at_depth s.E.sp_depth i)
    main;
  let totals = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let layer = layer_of_span s.E.sp_name in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals layer) in
      Hashtbl.replace totals layer (prev +. (self.(i) /. 1e6)))
    main;
  List.sort compare (List.of_seq (Hashtbl.to_seq totals))

(* Per-layer values that follow from the deterministic per-program rows
   every pass reports. *)
let of_rows (rows : (string * (string * float) list) list) =
  let total key =
    Stats.sum
      (List.map (fun (_, r) -> Option.value ~default:0.0 (List.assoc_opt key r)) rows)
  in
  let growth =
    List.filter_map
      (fun (_, r) ->
        match (List.assoc_opt "cost_before" r, List.assoc_opt "cost_after" r) with
        | Some b, Some a when b > 0.0 -> Some (a /. b)
        | _ -> None)
      rows
  in
  [ ("minic.ir_size", total "ir_size");
    ("interp.train_steps", total "train_steps");
    ("hlo.inlines", total "inlines"); ("hlo.clones", total "clones");
    ("hlo.clone_replacements", total "clone_replacements");
    ("hlo.deletions", total "deletions"); ("hlo.residues", total "residues");
    ("hlo.passes", total "passes");
    ("hlo.cost_growth_geomean", if growth = [] then 0.0 else Stats.geomean growth);
    ("machine.instructions", total "instructions");
    ( "machine.icache_miss_rate",
      Stats.ratio (total "icache_misses") (total "icache_accesses") );
    ( "machine.dcache_miss_rate",
      Stats.ratio (total "dcache_misses") (total "dcache_accesses") );
    ( "machine.branch_mispredict_rate",
      Stats.ratio (total "branch_mispredicts") (total "branches") ) ]
