(** Definitional interpreter for ucode.

    Two jobs:
    - it defines the *semantics* of the IR, against which every
      transformation (optimizations, inlining, cloning, machine
      lowering) is differentially tested;
    - run with [~profile:true] it is the paper's *instrumented training
      run*: it fills a {!Ucode.Profile} database with basic-block
      execution counts, call-site counts and indirect-call target
      histograms.  The run counts into flat counter arrays and builds
      the database from them once, when it finishes or traps.

    A run first decodes the program into flat arrays: one opcode per
    instruction, with the binop folded in and each builtin its own
    opcode; jump targets resolved to block indices, direct callees to
    routine indices, [Faddr]/[Gaddr] to constants.  A name that does
    not resolve, or a register outside its routine's frame, decodes to
    an operation that traps, or raises, only when it executes, so
    decoding never makes an error eager.

    Memory is one zero-filled array of 64-bit cells per run.  Cell 0 is
    reserved so that 0 can serve as a null address; globals are laid
    out from cell 1, and [alloc] bumps a pointer past them.  Function
    values are dense positive handles assigned per run. *)

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

(* ------------------------------------------------------------------ *)
(* Decoded program.                                                    *)

(* One constant constructor per dispatch case, so the run loop matches
   on an immediate.  [Unresolved] is an [Faddr]/[Gaddr] of a name the
   program does not define; [External] a direct call to one.  The
   terminators close every block's run of instructions.

   The last four stand for an instruction that names a register
   outside its routine's frame (see [guard]). *)
type op =
  | Const | Move | Neg | Not | Load | Store
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Call | Call_indirect
  | Print_int | Print_char | Alloc | Abort | External | Unresolved
  | Jump | Branch | Return | Return_none
  | Bad_register | Bad_div_dest | Bad_load_dest | Bad_after_charge

let alu_op : U.binop -> op = function
  | U.Add -> Add | U.Sub -> Sub | U.Mul -> Mul | U.Div -> Div | U.Rem -> Rem
  | U.And -> And | U.Or -> Or | U.Xor -> Xor | U.Shl -> Shl | U.Shr -> Shr
  | U.Eq -> Eq | U.Ne -> Ne | U.Lt -> Lt | U.Le -> Le | U.Gt -> Gt | U.Ge -> Ge

type memory = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [create_memory cells]: a zero-filled array of [cells] cells over an
   anonymous mapping of its own (memory_stubs.c), unmapped when the GC
   collects it. *)
external create_memory : int -> memory = "interp_memory_create"

(* Per-run state: the decoded program, its counters and the machine
   state.  Operand fields, one array each, indexed by instruction:
   - [fa]: destination (-1 for a call whose result is unused), stored
     address or tested register;
   - [fb]: first source, stored value, callee routine, handle register
     or first target block;
   - [fc]: second source, call-site slot or second target block;
   - [fd]: the call's argument list in [pool], or the block's cost (its
     instructions plus the terminator) on a terminator.
   A target block of -1 names a missing label. *)
type state = {
  ops : op array;
  fa : int array;
  fb : int array;
  fc : int array;
  fd : int array;
  imm : Bytes.t;  (** [Const] values, 8 bytes per instruction *)
  names : string array;  (** the undefined name of an [External]/[Unresolved] *)
  pool : int array;
      (** argument and parameter register lists, each a length then the
          registers; [pool.(0) = 0] is the empty list *)
  (* Routines, one per name (the last definition wins). *)
  r_name : string array;
  r_entry : int array;  (** entry block, or -1 for a routine with none *)
  r_regs : int array;   (** frame size in registers *)
  r_params : int array; (** parameter list in [pool] *)
  r_blocks : int array;
      (** routine [i]'s blocks are [r_blocks.(i)] to [r_blocks.(i+1) - 1] *)
  b_label : int array;
  b_start : int array;  (** first instruction *)
  counts : int array;   (** executions of each block *)
  handles : int array;  (** routine of handle [h] at [h - 1] *)
  (* Call sites, one slot per distinct site id. *)
  site_id : int array;
  site_calls : int array;
  site_targets : (int * int ref) list array;  (** routine, calls; newest first *)
  memory : memory;
  cells : int64;
  mutable brk : int;  (** first cell not yet given out by [alloc] *)
  global_base : (string, int) Hashtbl.t;
  output : Buffer.t;
  ret : Bytes.t;  (** the value the last routine returned, unboxed *)
  mutable steps : int;
  mutable depth : int;
  cfg : config;
  main : int;
}

(* The run loop reads and writes the registers of the operations below
   unchecked, so decoding checks them against the routine's frame of
   [nregs] registers.  An instruction that names one outside it
   decodes to an operation that does what the checked access did when
   it executed: whatever the instruction does before that access, then
   the access's [Invalid_argument].  Calls and builtins keep checked
   accesses. *)
let guard nregs op a b c =
  let ok r = r >= 0 && r < nregs in
  match op with
  | Const -> if ok a then op else Bad_register
  | Move | Neg | Not | Store -> if ok a && ok b then op else Bad_register
  | Add | Sub | Mul | And | Or | Xor | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge
    ->
    if ok a && ok b && ok c then op else Bad_register
  (* The sources are read, the divisor tested, then the result written. *)
  | Div | Rem ->
    if not (ok b && ok c) then Bad_register
    else if ok a then op
    else Bad_div_dest
  (* The address is read and checked, then the result written. *)
  | Load ->
    if not (ok b) then Bad_register else if ok a then op else Bad_load_dest
  (* The block's steps are charged, then the register read. *)
  | Branch | Return -> if ok a then op else Bad_after_charge
  | _ -> op

(* Name tables are filled with [Hashtbl.replace] in program order, so
   the last definition of a name wins. *)
let decode (p : U.program) (cfg : config) : state =
  let last = Hashtbl.create 64 in
  let name (r : U.routine) = r.U.r_name in
  List.iteri (fun i r -> Hashtbl.replace last (name r) i) p.U.p_routines;
  let routines =
    Array.of_list
      (List.filteri (fun i r -> Hashtbl.find last (name r) = i) p.U.p_routines)
  in
  let index = Hashtbl.create 64 in
  Array.iteri (fun ri r -> Hashtbl.replace index (name r) ri) routines;
  let handles =
    Array.of_list
      (List.map (fun r -> Hashtbl.find index (name r)) p.U.p_routines)
  in
  let nr = Array.length routines in
  let nblocks = ref 0 and ncode = ref 0 and npool = ref 1 and ncalls = ref 0 in
  Array.iter
    (fun (r : U.routine) ->
      npool := !npool + 1 + List.length r.U.r_params;
      List.iter
        (fun (b : U.block) ->
          incr nblocks;
          ncode := !ncode + List.length b.U.b_instrs + 1;
          List.iter
            (function
              | U.Call c ->
                incr ncalls;
                npool := !npool + 1 + List.length c.U.c_args
              | _ -> ())
            b.U.b_instrs)
        r.U.r_blocks)
    routines;
  let ncode = !ncode and nblocks = !nblocks in
  let ops = Array.make ncode Return_none in
  let fa = Array.make ncode 0 and fb = Array.make ncode 0 in
  let fc = Array.make ncode 0 and fd = Array.make ncode 0 in
  let imm = Bytes.make (ncode * 8) '\000' in
  let names = Array.make ncode "" in
  let pool = Array.make !npool 0 in
  let b_label = Array.make nblocks 0 and b_start = Array.make nblocks 0 in
  let site_id = Array.make !ncalls 0 in
  (* A fresh array per run, not a reused or paged one: as a custom
     block it charges its 8 MB to the GC, which keeps OCaml 5.1's major
     GC at the pace the same amount of OCaml heap gave it.  Reused or
     paged memory let the major GC fall behind and raised peak RSS. *)
  let memory = create_memory cfg.memory_cells in
  let global_base = Hashtbl.create 64 in
  let next = ref 1 (* cell 0 is the null page *) in
  List.iter
    (fun (g : U.global) ->
      Hashtbl.replace global_base g.U.g_name !next;
      List.iteri (fun i v -> memory.{!next + i} <- v) g.U.g_init;
      next := !next + g.U.g_size)
    p.U.p_globals;
  let npool = ref 1 in
  let list regs =
    let at = !npool in
    pool.(at) <- List.length regs;
    List.iteri (fun i r -> pool.(at + 1 + i) <- r) regs;
    npool := at + 1 + List.length regs;
    at
  in
  let slots = Hashtbl.create 64 in
  let slot site =
    match Hashtbl.find_opt slots site with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots site s;
      site_id.(s) <- site;
      s
  in
  let r_entry = Array.make nr (-1) and r_params = Array.make nr 0 in
  let r_blocks = Array.make (nr + 1) 0 in
  let pc = ref 0 and bi = ref 0 in
  Array.iteri
    (fun ri (r : U.routine) ->
      r_blocks.(ri) <- !bi;
      r_params.(ri) <- list r.U.r_params;
      let labels = Hashtbl.create 16 in
      List.iteri
        (fun k (b : U.block) -> Hashtbl.replace labels b.U.b_id (!bi + k))
        r.U.r_blocks;
      (match r.U.r_blocks with
      | b :: _ -> r_entry.(ri) <- Hashtbl.find labels b.U.b_id
      | [] -> ());
      let target l = Option.value ~default:(-1) (Hashtbl.find_opt labels l) in
      let nregs = max r.U.r_next_reg 1 in
      List.iter
        (fun (b : U.block) ->
          b_label.(!bi) <- b.U.b_id;
          b_start.(!bi) <- !pc;
          incr bi;
          let emit op a b c d =
            let i = !pc in
            ops.(i) <- guard nregs op a b c;
            fa.(i) <- a;
            fb.(i) <- b;
            fc.(i) <- c;
            fd.(i) <- d;
            incr pc
          in
          let const d k =
            Bytes.set_int64_ne imm (!pc * 8) k;
            emit Const d 0 0 0
          in
          let unresolved d n =
            names.(!pc) <- n;
            emit Unresolved d 0 0 0
          in
          List.iter
            (function
              | U.Const (d, k) -> const d k
              | U.Faddr (d, n) -> (
                match Hashtbl.find_opt last n with
                | Some i -> const d (Int64.of_int (i + 1))
                | None -> unresolved d n)
              | U.Gaddr (d, n) -> (
                match Hashtbl.find_opt global_base n with
                | Some base -> const d (Int64.of_int base)
                | None -> unresolved d n)
              | U.Unop (d, U.Neg, a) -> emit Neg d a 0 0
              | U.Unop (d, U.Not, a) -> emit Not d a 0 0
              | U.Binop (d, op, a, b) -> emit (alu_op op) d a b 0
              | U.Move (d, a) -> emit Move d a 0 0
              | U.Load (d, a) -> emit Load d a 0 0
              | U.Store (a, v) -> emit Store a v 0 0
              | U.Call { c_dst; c_callee; c_args; c_site } ->
                let d = Option.value ~default:(-1) c_dst in
                let s = slot c_site and args = list c_args in
                (match c_callee with
                | U.Indirect h -> emit Call_indirect d h s args
                | U.Direct n -> (
                  match Hashtbl.find_opt index n with
                  | Some callee -> emit Call d callee s args
                  | None ->
                    let op =
                      match n with
                      | "print_int" -> Print_int
                      | "print_char" -> Print_char
                      | "alloc" -> Alloc
                      | "abort" -> Abort
                      | _ ->
                        names.(!pc) <- n;
                        External
                    in
                    emit op d 0 s args)))
            b.U.b_instrs;
          let cost = List.length b.U.b_instrs + 1 in
          match b.U.b_term with
          | U.Jump l -> emit Jump 0 (target l) 0 cost
          | U.Branch (c, l1, l2) -> emit Branch c (target l1) (target l2) cost
          | U.Return (Some v) -> emit Return v 0 0 cost
          | U.Return None -> emit Return_none 0 0 0 cost)
        r.U.r_blocks)
    routines;
  r_blocks.(nr) <- nblocks;
  let nsites = Hashtbl.length slots in
  { ops; fa; fb; fc; fd; imm; names; pool;
    r_name = Array.map name routines;
    r_entry;
    r_regs = Array.map (fun (r : U.routine) -> max r.U.r_next_reg 1) routines;
    r_params; r_blocks; b_label; b_start;
    counts = Array.make nblocks 0;
    handles;
    site_id = Array.sub site_id 0 nsites;
    site_calls = Array.make nsites 0;
    site_targets = Array.make nsites [];
    memory; cells = Int64.of_int cfg.memory_cells; brk = !next; global_base;
    output = Buffer.create 256; ret = Bytes.make 8 '\000'; steps = 0;
    depth = 0; cfg;
    main = Hashtbl.find index p.U.p_main }

(* ------------------------------------------------------------------ *)
(* Execution.                                                          *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* A frame holds 8 bytes per register.  [reg]/[set_reg] serve the
   operations whose registers [guard] checked at decode; the checked
   pair serves calls and builtins, where an out-of-range register
   raises [Invalid_argument], as an array index would. *)
let[@inline] reg regs r = get64u regs (r lsl 3)
let[@inline] set_reg regs r v = set64u regs (r lsl 3) v
let[@inline] reg_checked regs r = get64 regs (r lsl 3)
let[@inline] set_reg_checked regs r v = set64 regs (r lsl 3) v

(* What [reg_checked] raises on a register outside the frame. *)
let bad_register () = invalid_arg "index out of bounds"

(* Count an indirect call at [slot] that reached routine [callee]. *)
let note_target st slot callee =
  let rec find = function
    | [] -> st.site_targets.(slot) <- (callee, ref 1) :: st.site_targets.(slot)
    | (ri, n) :: rest -> if ri = callee then incr n else find rest
  in
  find st.site_targets.(slot)

(* The first argument of a builtin, 0 if the call passed none. *)
let[@inline] arg0 st regs args =
  if st.pool.(args) > 0 then reg_checked regs st.pool.(args + 1) else 0L

let trap st ri t = raise (Trap (t, st.r_name.(ri)))

(* Enter block [b]: count it and return its first instruction. *)
let[@inline] enter st b =
  if b < 0 then raise Not_found;
  st.counts.(b) <- st.counts.(b) + 1;
  st.b_start.(b)

(* Charge a block's steps once its instructions have run. *)
let[@inline] charge st ri cost =
  st.steps <- st.steps + cost;
  if st.steps > st.cfg.fuel then trap st ri Out_of_fuel

(* The cell of a data address, or an [Out_of_bounds] trap. *)
let[@inline] cell st ri a =
  if a < 1L || a >= st.cells then trap st ri (Out_of_bounds a);
  Int64.to_int a

let[@inline] set_result regs d v = if d >= 0 then set_reg_checked regs d v

(* Run routine [ri] with the argument list at [args] in [pool], whose
   registers are read from the caller's frame [caller]; its result is
   left in [st.ret]. *)
let rec run_routine st ri (caller : Bytes.t) args =
  st.depth <- st.depth + 1;
  if st.depth > st.cfg.max_call_depth then trap st ri Call_depth_exceeded;
  let regs = Bytes.make (st.r_regs.(ri) lsl 3) '\000' in
  let pool = st.pool in
  (* Missing arguments read as 0, extra arguments are dropped — the
     dusty-deck C convention that makes arity-mismatched calls run. *)
  let nargs = pool.(args) and params = st.r_params.(ri) in
  for k = 1 to pool.(params) do
    set_reg_checked regs pool.(params + k)
      (if k <= nargs then reg_checked caller pool.(args + k) else 0L)
  done;
  let entry = st.r_entry.(ri) in
  if entry < 0 then
    invalid_arg ("entry_block: routine " ^ st.r_name.(ri) ^ " has no blocks");
  let ops = st.ops and fa = st.fa and fb = st.fb and fc = st.fc and fd = st.fd in
  let memory = st.memory in
  let pc = ref (enter st entry) in
  let running = ref true in
  while !running do
    let i = !pc in
    pc := i + 1;
    let a = Array.unsafe_get fa i in
    let b = Array.unsafe_get fb i in
    let c = Array.unsafe_get fc i in
    match Array.unsafe_get ops i with
    | Const -> set_reg regs a (get64u st.imm (i lsl 3))
    | Move -> set_reg regs a (reg regs b)
    | Neg -> set_reg regs a (Int64.neg (reg regs b))
    | Not -> set_reg regs a (if reg regs b = 0L then 1L else 0L)
    | Load ->
      set_reg regs a (Bigarray.Array1.unsafe_get memory (cell st ri (reg regs b)))
    | Store -> Bigarray.Array1.unsafe_set memory (cell st ri (reg regs a)) (reg regs b)
    | Add -> set_reg regs a (Int64.add (reg regs b) (reg regs c))
    | Sub -> set_reg regs a (Int64.sub (reg regs b) (reg regs c))
    | Mul -> set_reg regs a (Int64.mul (reg regs b) (reg regs c))
    | Div ->
      let x = reg regs b and y = reg regs c in
      if y = 0L then trap st ri Division_by_zero;
      set_reg regs a (Int64.div x y)
    | Rem ->
      let x = reg regs b and y = reg regs c in
      if y = 0L then trap st ri Division_by_zero;
      set_reg regs a (Int64.rem x y)
    | And -> set_reg regs a (Int64.logand (reg regs b) (reg regs c))
    | Or -> set_reg regs a (Int64.logor (reg regs b) (reg regs c))
    | Xor -> set_reg regs a (Int64.logxor (reg regs b) (reg regs c))
    | Shl ->
      let k = Int64.to_int (Int64.logand (reg regs c) 63L) in
      set_reg regs a (Int64.shift_left (reg regs b) k)
    | Shr ->
      let k = Int64.to_int (Int64.logand (reg regs c) 63L) in
      set_reg regs a (Int64.shift_right (reg regs b) k)
    | Eq -> set_reg regs a (if reg regs b = reg regs c then 1L else 0L)
    | Ne -> set_reg regs a (if reg regs b <> reg regs c then 1L else 0L)
    | Lt -> set_reg regs a (if reg regs b < reg regs c then 1L else 0L)
    | Le -> set_reg regs a (if reg regs b <= reg regs c then 1L else 0L)
    | Gt -> set_reg regs a (if reg regs b > reg regs c then 1L else 0L)
    | Ge -> set_reg regs a (if reg regs b >= reg regs c then 1L else 0L)
    | Call ->
      if st.cfg.profile then st.site_calls.(c) <- st.site_calls.(c) + 1;
      run_routine st b regs (Array.unsafe_get fd i);
      set_result regs a (get64u st.ret 0)
    | Call_indirect ->
      let h = reg_checked regs b in
      if h < 1L || h > Int64.of_int (Array.length st.handles) then
        trap st ri (Bad_function_handle h);
      let callee = st.handles.(Int64.to_int h - 1) in
      if st.cfg.profile then begin
        st.site_calls.(c) <- st.site_calls.(c) + 1;
        note_target st c callee
      end;
      (* Direct calls follow the dusty-deck pad/drop convention; an
         *indirect* call must match the target's arity exactly (the
         machine cannot reconstruct missing arguments through a
         function pointer, and neither do we). *)
      let args = Array.unsafe_get fd i in
      if pool.(args) <> pool.(st.r_params.(callee)) then
        trap st ri (Indirect_arity_mismatch st.r_name.(callee));
      run_routine st callee regs args;
      set_result regs a (get64u st.ret 0)
    | (Print_int | Print_char | Alloc | Abort | External) as op -> (
      if st.cfg.profile then st.site_calls.(c) <- st.site_calls.(c) + 1;
      let v = arg0 st regs (Array.unsafe_get fd i) in
      match op with
      | Print_int ->
        Buffer.add_string st.output (Int64.to_string v);
        Buffer.add_char st.output '\n';
        set_result regs a 0L
      | Print_char ->
        Buffer.add_char st.output (Char.chr (Int64.to_int (Int64.logand v 255L)));
        set_result regs a 0L
      | Alloc ->
        (* Compared against the room left, so a huge [n] cannot
           overflow the sum. *)
        let n = Int64.to_int v in
        if n < 0 || n > st.cfg.memory_cells - st.brk then trap st ri Out_of_memory;
        set_result regs a (Int64.of_int st.brk);
        st.brk <- st.brk + n
      | Abort -> trap st ri Aborted
      | _ -> trap st ri (Call_to_external st.names.(i)))
    | Unresolved -> trap st ri (Call_to_external st.names.(i))
    | Jump ->
      charge st ri (Array.unsafe_get fd i);
      pc := enter st b
    | Branch ->
      charge st ri (Array.unsafe_get fd i);
      pc := enter st (if reg regs a <> 0L then b else c)
    | Return ->
      charge st ri (Array.unsafe_get fd i);
      set64u st.ret 0 (reg regs a);
      running := false
    | Return_none ->
      charge st ri (Array.unsafe_get fd i);
      set64u st.ret 0 0L;
      running := false
    | Bad_register -> bad_register ()
    | Bad_div_dest ->
      if reg regs c = 0L then trap st ri Division_by_zero;
      bad_register ()
    | Bad_load_dest ->
      ignore (cell st ri (reg regs b));
      bad_register ()
    | Bad_after_charge ->
      charge st ri (Array.unsafe_get fd i);
      bad_register ()
  done;
  st.depth <- st.depth - 1

(* The profile database the counters describe; empty unless profiling.
   Equal, binding for binding, to what [Ucode.Profile.add_block],
   [add_site] and [add_target] build from the same events. *)
let profile st : Ucode.Profile.t =
  if not st.cfg.profile then Ucode.Profile.empty
  else
    let blocks = ref U.String_map.empty in
    Array.iteri
      (fun ri name ->
        let counts = ref U.Int_map.empty in
        for b = st.r_blocks.(ri) to st.r_blocks.(ri + 1) - 1 do
          if st.counts.(b) > 0 then
            counts :=
              U.Int_map.add st.b_label.(b) (float_of_int st.counts.(b)) !counts
        done;
        if not (U.Int_map.is_empty !counts) then
          blocks := U.String_map.add name !counts !blocks)
      st.r_name;
    let sites = ref U.Int_map.empty and targets = ref U.Int_map.empty in
    Array.iteri
      (fun s site ->
        if st.site_calls.(s) > 0 then
          sites := U.Int_map.add site (float_of_int st.site_calls.(s)) !sites;
        match st.site_targets.(s) with
        | [] -> ()
        | hist ->
          targets :=
            U.Int_map.add site
              (List.map (fun (ri, n) -> (st.r_name.(ri), float_of_int !n)) hist)
              !targets)
      st.site_id;
    { Ucode.Profile.blocks = !blocks; sites = !sites; targets = !targets }

(* Final (or trap-time) values of every global, in program order. *)
let snapshot_globals st (p : U.program) : (string * int64 array) list =
  List.map
    (fun (g : U.global) ->
      let base = Hashtbl.find st.global_base g.U.g_name in
      (* Zero cells share one constant rather than each boxing its own. *)
      ( g.U.g_name,
        Array.init g.U.g_size (fun i ->
            let v = st.memory.{base + i} in
            if v = 0L then 0L else v) ))
    p.U.p_globals

let result_of st p exit_code =
  { exit_code; output = Buffer.contents st.output; steps = st.steps;
    profile = profile st; globals = snapshot_globals st p }

(* [main] is called with no arguments. *)
let run_main st =
  run_routine st st.main Bytes.empty 0;
  get64u st.ret 0

(* [span_name] distinguishes plain runs from training runs in traces. *)
let run_spanned span_name config (p : U.program) : result =
  Telemetry.Collector.with_span span_name @@ fun () ->
  let st = decode p config in
  let exit_code = run_main st in
  if Telemetry.Collector.enabled () then begin
    Telemetry.Collector.annotate "steps" (Telemetry.Event.Int st.steps);
    Telemetry.Collector.annotate "profiled" (Telemetry.Event.Bool config.profile);
    Telemetry.Collector.count "interp.steps" st.steps
  end;
  result_of st p exit_code

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
  let st = decode p config in
  match run_main st with
  | exit_code -> Finished (result_of st p exit_code)
  | exception Trap (trap, routine) ->
    Trapped { trap; routine; partial = result_of st p 0L }
