(** Definitional interpreter for ucode.

    Two jobs:
    - it defines the *semantics* of the IR, against which every
      transformation (optimizations, inlining, cloning, machine
      lowering) is differentially tested;
    - run with [~profile:true] it is the paper's *instrumented training
      run*: it fills a {!Ucode.Profile} database with basic-block
      execution counts, call-site counts and indirect-call target
      histograms.  The run counts into mutable counters and builds the
      database from them once, when it finishes or traps.

    Memory is a flat array of 64-bit cells.  Cell 0 is reserved so
    that 0 can serve as a null address; globals are laid out from cell
    1, and [alloc] bumps a pointer past them.  Function values are
    dense positive handles assigned per run. *)

module U = Ucode.Types

type trap =
  | Division_by_zero
  | Out_of_bounds of int64
  | Bad_function_handle of int64
  | Call_to_external of string
  | Aborted
  | Out_of_fuel
  | Out_of_memory
  | Call_depth_exceeded
  | Indirect_arity_mismatch of string

exception Trap of trap * string  (* routine where it happened *)

let trap_message = function
  | Division_by_zero -> "division by zero"
  | Out_of_bounds a -> Printf.sprintf "memory access out of bounds (%Ld)" a
  | Bad_function_handle h -> Printf.sprintf "bad function handle %Ld" h
  | Call_to_external n -> Printf.sprintf "call to external routine %s" n
  | Aborted -> "abort() called"
  | Out_of_fuel -> "out of fuel (possible infinite loop)"
  | Out_of_memory -> "allocator exhausted memory"
  | Call_depth_exceeded -> "call depth exceeded (runaway recursion)"
  | Indirect_arity_mismatch n ->
    Printf.sprintf "indirect call to %s with the wrong argument count" n

type result = {
  exit_code : int64;
  output : string;
  steps : int;  (** IR instructions executed *)
  profile : Ucode.Profile.t;  (** empty unless [~profile:true] *)
  globals : (string * int64 array) list;  (** final values, program order *)
}

type config = {
  memory_cells : int;
  fuel : int;          (** max IR instructions to execute *)
  max_call_depth : int;
  profile : bool;
}

let default_config =
  { memory_cells = 1 lsl 20; fuel = 200_000_000; max_call_depth = 100_000;
    profile = false }

(* A block with its execution counter and the steps one execution
   charges (its instructions plus the terminator). *)
type slot = { block : U.block; cost : int; mutable count : int }

(* The calls made at one site and, for an indirect site, the routines
   called there, newest first (the order of [Ucode.Profile.add_target]). *)
type site_counter = {
  mutable calls : int;
  mutable targets : (string * int ref) list;
}

(* Per-run execution state. *)
type state = {
  program : U.program;
  memory : int64 array;
  mutable brk : int;  (** first cell not yet given out by [alloc] *)
  output : Buffer.t;
  mutable steps : int;
  mutable depth : int;
  cfg : config;
  (* Routine name -> (routine, label -> block slot). *)
  routines : (string, U.routine * (int, slot) Hashtbl.t) Hashtbl.t;
  handle_of_name : (string, int64) Hashtbl.t;
  name_of_handle : (int64, string) Hashtbl.t;
  global_base : (string, int) Hashtbl.t;
  sites : (U.site, site_counter) Hashtbl.t;  (** filled only when profiling *)
}

let make_state (p : U.program) (cfg : config) : state =
  let routines = Hashtbl.create 64 in
  let handle_of_name = Hashtbl.create 64 in
  let name_of_handle = Hashtbl.create 64 in
  List.iteri
    (fun i (r : U.routine) ->
      let blocks = Hashtbl.create 16 in
      List.iter
        (fun (b : U.block) ->
          Hashtbl.replace blocks b.U.b_id
            { block = b; cost = List.length b.U.b_instrs + 1; count = 0 })
        r.U.r_blocks;
      Hashtbl.replace routines r.U.r_name (r, blocks);
      let h = Int64.of_int (i + 1) in
      Hashtbl.replace handle_of_name r.U.r_name h;
      Hashtbl.replace name_of_handle h r.U.r_name)
    p.U.p_routines;
  let memory = Array.make cfg.memory_cells 0L in
  let global_base = Hashtbl.create 64 in
  let next = ref 1 (* cell 0 is the null page *) in
  List.iter
    (fun (g : U.global) ->
      Hashtbl.replace global_base g.U.g_name !next;
      List.iteri (fun i v -> memory.(!next + i) <- v) g.U.g_init;
      next := !next + g.U.g_size)
    p.U.p_globals;
  { program = p; memory; brk = !next; output = Buffer.create 256; steps = 0;
    depth = 0; cfg; routines; handle_of_name; name_of_handle; global_base;
    sites = Hashtbl.create 64 }

(* Count one call at [site] that reached [callee]. *)
let note_call st site (callee : U.callee) callee_name =
  let sc =
    match Hashtbl.find_opt st.sites site with
    | Some sc -> sc
    | None ->
      let sc = { calls = 0; targets = [] } in
      Hashtbl.add st.sites site sc;
      sc
  in
  sc.calls <- sc.calls + 1;
  match callee with
  | U.Direct _ -> ()
  | U.Indirect _ -> (
    match List.assoc_opt callee_name sc.targets with
    | Some n -> incr n
    | None -> sc.targets <- (callee_name, ref 1) :: sc.targets)

(* The profile database the counters describe; empty unless profiling.
   Equal, binding for binding, to what [Ucode.Profile.add_block],
   [add_site] and [add_target] build from the same events. *)
let profile st : Ucode.Profile.t =
  if not st.cfg.profile then Ucode.Profile.empty
  else
    let blocks =
      Hashtbl.fold
        (fun name (_, slots) acc ->
          let counts =
            Hashtbl.fold
              (fun label slot m ->
                if slot.count = 0 then m
                else U.Int_map.add label (float_of_int slot.count) m)
              slots U.Int_map.empty
          in
          if U.Int_map.is_empty counts then acc
          else U.String_map.add name counts acc)
        st.routines U.String_map.empty
    in
    let sites, targets =
      Hashtbl.fold
        (fun site sc (sites, targets) ->
          ( U.Int_map.add site (float_of_int sc.calls) sites,
            if sc.targets = [] then targets
            else
              U.Int_map.add site
                (List.map (fun (n, c) -> (n, float_of_int !c)) sc.targets)
                targets ))
        st.sites (U.Int_map.empty, U.Int_map.empty)
    in
    { Ucode.Profile.blocks; sites; targets }

let check_addr st routine_name (a : int64) =
  if Int64.compare a 1L < 0
     || Int64.compare a (Int64.of_int (Array.length st.memory)) >= 0
  then raise (Trap (Out_of_bounds a, routine_name))

let truthy v = not (Int64.equal v 0L)
let of_bool b = if b then 1L else 0L

let eval_binop op a b routine_name =
  match op with
  | U.Add -> Int64.add a b
  | U.Sub -> Int64.sub a b
  | U.Mul -> Int64.mul a b
  | U.Div ->
    if Int64.equal b 0L then raise (Trap (Division_by_zero, routine_name));
    Int64.div a b
  | U.Rem ->
    if Int64.equal b 0L then raise (Trap (Division_by_zero, routine_name));
    Int64.rem a b
  | U.And -> Int64.logand a b
  | U.Or -> Int64.logor a b
  | U.Xor -> Int64.logxor a b
  | U.Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | U.Shr -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
  | U.Eq -> of_bool (Int64.equal a b)
  | U.Ne -> of_bool (not (Int64.equal a b))
  | U.Lt -> of_bool (Int64.compare a b < 0)
  | U.Le -> of_bool (Int64.compare a b <= 0)
  | U.Gt -> of_bool (Int64.compare a b > 0)
  | U.Ge -> of_bool (Int64.compare a b >= 0)

let eval_unop op a =
  match op with
  | U.Neg -> Int64.neg a
  | U.Not -> if Int64.equal a 0L then 1L else 0L

(** Execute a builtin; returns its result value. *)
let run_builtin st routine_name name (args : int64 list) : int64 =
  let arg i = match List.nth_opt args i with Some v -> v | None -> 0L in
  match name with
  | "print_int" ->
    Buffer.add_string st.output (Int64.to_string (arg 0));
    Buffer.add_char st.output '\n';
    0L
  | "print_char" ->
    Buffer.add_char st.output (Char.chr (Int64.to_int (Int64.logand (arg 0) 255L)));
    0L
  | "alloc" ->
    let n = Int64.to_int (arg 0) in
    if n < 0 || st.brk + n > Array.length st.memory then
      raise (Trap (Out_of_memory, routine_name));
    let a = st.brk in
    st.brk <- st.brk + n;
    Int64.of_int a
  | "abort" -> raise (Trap (Aborted, routine_name))
  | _ -> raise (Trap (Call_to_external name, routine_name))

let rec run_routine st (r : U.routine) (blocks : (int, slot) Hashtbl.t)
    (args : int64 list) : int64 =
  st.depth <- st.depth + 1;
  if st.depth > st.cfg.max_call_depth then
    raise (Trap (Call_depth_exceeded, r.U.r_name));
  let regs = Array.make (max r.U.r_next_reg 1) 0L in
  (* Missing arguments read as 0, extra arguments are dropped — the
     dusty-deck C convention that makes arity-mismatched calls run. *)
  List.iteri
    (fun i p -> regs.(p) <- (match List.nth_opt args i with Some v -> v | None -> 0L))
    r.U.r_params;
  let rec exec_block slot : int64 =
    let b = slot.block in
    slot.count <- slot.count + 1;
    List.iter exec_instr b.U.b_instrs;
    st.steps <- st.steps + slot.cost;
    if st.steps > st.cfg.fuel then raise (Trap (Out_of_fuel, r.U.r_name));
    match b.U.b_term with
    | U.Jump l -> exec_block (Hashtbl.find blocks l)
    | U.Branch (c, l1, l2) ->
      exec_block (Hashtbl.find blocks (if truthy regs.(c) then l1 else l2))
    | U.Return (Some v) -> regs.(v)
    | U.Return None -> 0L
  and exec_instr (i : U.instr) : unit =
    match i with
    | U.Const (d, k) -> regs.(d) <- k
    | U.Faddr (d, n) -> (
      match Hashtbl.find_opt st.handle_of_name n with
      | Some h -> regs.(d) <- h
      | None -> raise (Trap (Call_to_external n, r.U.r_name)))
    | U.Gaddr (d, n) -> (
      match Hashtbl.find_opt st.global_base n with
      | Some base -> regs.(d) <- Int64.of_int base
      | None -> raise (Trap (Call_to_external n, r.U.r_name)))
    | U.Unop (d, op, a) -> regs.(d) <- eval_unop op regs.(a)
    | U.Binop (d, op, a, b_) ->
      regs.(d) <- eval_binop op regs.(a) regs.(b_) r.U.r_name
    | U.Move (d, a) -> regs.(d) <- regs.(a)
    | U.Load (d, a) ->
      check_addr st r.U.r_name regs.(a);
      regs.(d) <- st.memory.(Int64.to_int regs.(a))
    | U.Store (a, v) ->
      check_addr st r.U.r_name regs.(a);
      st.memory.(Int64.to_int regs.(a)) <- regs.(v)
    | U.Call { c_dst; c_callee; c_args; c_site } ->
      let argv = List.map (fun a -> regs.(a)) c_args in
      let callee_name =
        match c_callee with
        | U.Direct n -> n
        | U.Indirect h -> (
          match Hashtbl.find_opt st.name_of_handle regs.(h) with
          | Some n -> n
          | None -> raise (Trap (Bad_function_handle regs.(h), r.U.r_name)))
      in
      if st.cfg.profile then note_call st c_site c_callee callee_name;
      let result =
        match Hashtbl.find_opt st.routines callee_name with
        | Some (callee, callee_blocks) ->
          (* Direct calls follow the dusty-deck pad/drop convention;
             an *indirect* call must match the target's arity exactly
             (the machine cannot reconstruct missing arguments through
             a function pointer, and neither do we). *)
          (match c_callee with
          | U.Indirect _
            when List.length argv <> List.length callee.U.r_params ->
            raise (Trap (Indirect_arity_mismatch callee_name, r.U.r_name))
          | _ -> ());
          run_routine st callee callee_blocks argv
        | None -> run_builtin st r.U.r_name callee_name argv
      in
      (match c_dst with Some d -> regs.(d) <- result | None -> ())
  in
  let result = exec_block (Hashtbl.find blocks (U.entry_block r).U.b_id) in
  st.depth <- st.depth - 1;
  result

(* Final (or trap-time) values of every global, in program order. *)
let snapshot_globals st : (string * int64 array) list =
  List.map
    (fun (g : U.global) ->
      let base = Hashtbl.find st.global_base g.U.g_name in
      (g.U.g_name, Array.sub st.memory base g.U.g_size))
    st.program.U.p_globals

(* [span_name] distinguishes plain runs from training runs in traces. *)
let run_spanned span_name config (p : U.program) : result =
  Telemetry.Collector.with_span span_name @@ fun () ->
  let st = make_state p config in
  let main, main_blocks = Hashtbl.find st.routines p.U.p_main in
  let exit_code = run_routine st main main_blocks [] in
  if Telemetry.Collector.enabled () then begin
    Telemetry.Collector.annotate "steps" (Telemetry.Event.Int st.steps);
    Telemetry.Collector.annotate "profiled" (Telemetry.Event.Bool config.profile);
    Telemetry.Collector.count "interp.steps" st.steps
  end;
  { exit_code; output = Buffer.contents st.output; steps = st.steps;
    profile = profile st; globals = snapshot_globals st }

(** Run a program from its [main] routine (called with no arguments). *)
let run ?(config = default_config) (p : U.program) : result =
  run_spanned "interp.run" config p

(** The instrumented training run: execute and return the profile
    database alongside the result. *)
let train ?(config = default_config) (p : U.program) : result =
  run_spanned "interp.train" { config with profile = true } p

type outcome =
  | Finished of result
  | Trapped of { trap : trap; routine : string; partial : result }

(** Like {!run}, but a trap is returned as a value together with the
    observable state accumulated up to it (output printed so far and
    the globals at trap time) instead of discarding that state with an
    exception.  This is what the differential oracle compares: a
    transformed program must trap the same way *and* have produced the
    same observable effects before trapping. *)
let run_outcome ?(config = default_config) (p : U.program) : outcome =
  Telemetry.Collector.with_span "interp.run" @@ fun () ->
  let st = make_state p config in
  let main, main_blocks = Hashtbl.find st.routines p.U.p_main in
  match run_routine st main main_blocks [] with
  | exit_code ->
    Finished
      { exit_code; output = Buffer.contents st.output; steps = st.steps;
        profile = profile st; globals = snapshot_globals st }
  | exception Trap (trap, routine) ->
    Trapped
      { trap; routine;
        partial =
          { exit_code = 0L; output = Buffer.contents st.output;
            steps = st.steps; profile = profile st;
            globals = snapshot_globals st } }
