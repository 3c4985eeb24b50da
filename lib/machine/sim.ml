(** The machine simulator — our stand-in for the PA8000 simulator the
    paper used to produce Figure 7.

    Executes a laid-out {!Layout.image} while driving an I-cache (one
    access per instruction fetch), a D-cache (one access per load or
    store) and a branch predictor (returns and indirect calls always
    mispredict, per the paper's description of the PA8000).  The cycle
    model charges one cycle per retired instruction plus fixed miss and
    mispredict penalties — crude next to real out-of-order hardware,
    but it moves for the same reasons the PA8000's numbers moved, which
    is what the relative comparisons in Figure 7 need. *)

module U = Ucode.Types
module V = Vinsn

type penalties = {
  icache_miss : int;
  dcache_miss : int;
  branch_mispredict : int;
  mul_extra : int;  (** extra cycles for a multiply (beyond the base 1) *)
  div_extra : int;  (** extra cycles for a divide/remainder *)
}

let default_penalties =
  { icache_miss = 20; dcache_miss = 20; branch_mispredict = 5; mul_extra = 2;
    div_extra = 15 }

type config = {
  memory_cells : int;
  max_instructions : int;
  icache : Cache.config;
  dcache : Cache.config;
  predictor_entries : int;
  penalties : penalties;
}

let default_config =
  { memory_cells = 1 lsl 20; max_instructions = 400_000_000;
    icache = Cache.default_icache; dcache = Cache.default_dcache;
    predictor_entries = 256; penalties = default_penalties }

type trap =
  | Division_by_zero
  | Memory_fault of int64
  | Stack_overflow
  | Bad_jump of int
  | Aborted
  | Out_of_instructions
  | Out_of_memory

exception Trap of trap * int  (* pc *)

let trap_message = function
  | Division_by_zero -> "division by zero"
  | Memory_fault a -> Printf.sprintf "memory fault at %Ld" a
  | Stack_overflow -> "stack overflow"
  | Bad_jump a -> Printf.sprintf "jump outside code (%d)" a
  | Aborted -> "abort() called"
  | Out_of_instructions -> "instruction limit exceeded"
  | Out_of_memory -> "allocator exhausted memory"

type result = {
  exit_code : int64;
  output : string;
  metrics : Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Predecoded image.                                                   *)

(* One constant constructor per dispatch case.  The ALU binop is folded
   into the opcode and every builtin is its own opcode, so the run loop
   matches on an immediate and never looks at a [Vinsn.t] again. *)
type op =
  | Halt | Li | Mov | Neg | Not | Addi | Load | Store
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Jmp | Beqz | Bnez | Call | Calli | Ret
  | Print_int | Print_char | Alloc | Abort

let alu_op : U.binop -> op = function
  | U.Add -> Add | U.Sub -> Sub | U.Mul -> Mul | U.Div -> Div | U.Rem -> Rem
  | U.And -> And | U.Or -> Or | U.Xor -> Xor | U.Shl -> Shl | U.Shr -> Shr
  | U.Eq -> Eq | U.Ne -> Ne | U.Lt -> Lt | U.Le -> Le | U.Gt -> Gt | U.Ge -> Ge

(* ------------------------------------------------------------------ *)
(* Per-domain scratch.                                                 *)

(* Data memory is split into 4096-cell pages.  A page is allocated on
   its first write; until then it reads through the one shared zero
   page, which is never written, so a run touches only the pages its
   globals, heap and stack reach. *)
let page_bits = 12
let page_mask = (1 lsl page_bits) - 1
let page_bytes = (page_mask + 1) * 8
let zero_page = Bytes.make page_bytes '\000'

(* What a run borrows from its domain and hands back when it ends,
   trap or not: the decode arrays, grown to the largest image the
   domain has run; the page table; and up to [max_spare_pages] zeroed
   pages.  Once the domain has run an image as large, a run allocates
   no block the size of the image, the memory or a page.  Such blocks
   are too big for the OCaml heap's pools and come from the C heap;
   allocating and dropping them on every run fragments it, and peak
   RSS then depends on when the GC sweeps them. *)
type scratch = {
  mutable ops : op array;
  (* Operand fields, one array each, indexed by instruction address:
     - [fa]: destination, tested or base register;
     - [fb]: first source register, stored register or resolved target;
     - [fc]: second source register, offset, [Addi] constant, builtin
       argument count, or the slot of an [Li] immediate in [imm].
     Entries past the image being run are left over from an earlier
     one and never executed. *)
  mutable fa : int array;
  mutable fb : int array;
  mutable fc : int array;
  mutable imm : Bytes.t;  (** the [Li] immediates, 8 bytes per slot *)
  mutable table : Bytes.t array;  (** page table; unwritten pages are [zero_page] *)
  mutable spare : Bytes.t list;  (** zeroed pages *)
  mutable nspare : int;
}

let max_spare_pages = 64

let scratch_key : scratch option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* A run takes the scratch out of its domain, so a run that started
   inside another (none does today) would get a fresh one. *)
let borrow () =
  match Domain.DLS.get scratch_key with
  | Some s ->
    Domain.DLS.set scratch_key None;
    s
  | None ->
    { ops = [||]; fa = [||]; fb = [||]; fc = [||]; imm = Bytes.empty;
      table = [||]; spare = []; nspare = 0 }

(* Zero the pages the run wrote, keep as many as fit in the stock, and
   put the scratch back. *)
let give_back s =
  let table = s.table in
  for i = 0 to Array.length table - 1 do
    let page = table.(i) in
    if page != zero_page then begin
      table.(i) <- zero_page;
      if s.nspare < max_spare_pages then begin
        Bytes.fill page 0 page_bytes '\000';
        s.spare <- page :: s.spare;
        s.nspare <- s.nspare + 1
      end
    end
  done;
  Domain.DLS.set scratch_key (Some s)

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)

(* A register file: 32 cells of 8 bytes. *)
let nregs = 32

(* Decode [code] into the scratch's arrays.  Decoding rejects, before
   the first instruction runs, an image whose layout left a symbolic
   target behind or that names a register outside the file; the run
   loop then reads and writes registers unchecked. *)
let decode s (code : V.t array) =
  let n = Array.length code in
  if Array.length s.ops < n then begin
    s.ops <- Array.make n Halt;
    s.fa <- Array.make n 0;
    s.fb <- Array.make n 0;
    s.fc <- Array.make n 0
  end;
  let ops = s.ops and fa = s.fa and fb = s.fb and fc = s.fc in
  let nimm = ref 0 in
  let add_imm k =
    if (!nimm + 1) * 8 > Bytes.length s.imm then
      s.imm <- Bytes.extend s.imm 0 (max 1024 (Bytes.length s.imm));
    Bytes.set_int64_ne s.imm (!nimm * 8) k;
    incr nimm;
    !nimm - 1
  in
  let target = function
    | V.Taddr a -> a
    | _ -> invalid_arg "Sim.run: unresolved branch target (layout bug)"
  in
  Array.iteri
    (fun pc insn ->
      let set op a b c =
        ops.(pc) <- op;
        fa.(pc) <- a;
        fb.(pc) <- b;
        fc.(pc) <- c
      in
      let r x =
        if x < 0 || x >= nregs then
          invalid_arg
            (Printf.sprintf "Sim.run: register r%d out of range at %d" x pc);
        x
      in
      match insn with
      | V.Mhalt -> set Halt 0 0 0
      | V.Mli (d, k) -> set Li (r d) 0 (add_imm k)
      | V.Mla _ -> invalid_arg "Sim.run: unresolved Mla (layout bug)"
      | V.Mmov (d, a) -> set Mov (r d) (r a) 0
      | V.Malu (op, d, a, b) -> set (alu_op op) (r d) (r a) (r b)
      | V.Mneg (d, a) -> set Neg (r d) (r a) 0
      | V.Mnot (d, a) -> set Not (r d) (r a) 0
      | V.Maddi (d, a, k) -> set Addi (r d) (r a) k
      | V.Mload (d, a, off) -> set Load (r d) (r a) off
      | V.Mstore (a, off, b) -> set Store (r a) (r b) off
      | V.Mjmp t -> set Jmp 0 (target t) 0
      | V.Mbeqz (x, t) -> set Beqz (r x) (target t) 0
      | V.Mbnez (x, t) -> set Bnez (r x) (target t) 0
      | V.Mcall t -> set Call 0 (target t) 0
      | V.Mcalli x -> set Calli (r x) 0 0
      | V.Mret -> set Ret 0 0 0
      | V.Msys (name, k) ->
        let op =
          match name with
          | "print_int" -> Print_int
          | "print_char" -> Print_char
          | "alloc" -> Alloc
          | _ -> Abort
        in
        set op 0 0 k)
    code

(* ------------------------------------------------------------------ *)
(* Registers and data memory, unboxed.                                 *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Unchecked: [decode] has checked every register field against the
   file. *)
let[@inline] reg regs r = get64u regs (r lsl 3)
let[@inline] set_reg regs r v = set64u regs (r lsl 3) v

type memory = { pages : Bytes.t array; scratch : scratch }

(* A run's memory: the scratch's page table, every page unwritten. *)
let memory s cells =
  let n = (cells + page_mask) lsr page_bits in
  if Array.length s.table <> n then s.table <- Array.make n zero_page;
  { pages = s.table; scratch = s }

let fresh_page mem i =
  let s = mem.scratch in
  let page =
    match s.spare with
    | page :: rest ->
      s.spare <- rest;
      s.nspare <- s.nspare - 1;
      page
    | [] -> Bytes.make page_bytes '\000'
  in
  mem.pages.(i) <- page;
  page

(* [load]/[store] take a cell already checked to lie in memory. *)
let[@inline] load mem a =
  get64u (Array.unsafe_get mem.pages (a lsr page_bits)) ((a land page_mask) lsl 3)

let[@inline] store mem a v =
  let i = a lsr page_bits in
  let page = Array.unsafe_get mem.pages i in
  let page = if page == zero_page then fresh_page mem i else page in
  set64u page ((a land page_mask) lsl 3) v

(* The cell of a data address, or a [Memory_fault] trap at [pc].  The
   range check is made on the full 64-bit address. *)
let[@inline] cell_of cells addr pc =
  if addr < 1L || addr >= cells then raise (Trap (Memory_fault addr, pc));
  Int64.to_int addr

(* [call]/[calli]: drop the stack pointer, trap if it meets the heap
   break, and store the return address; returns the cell written. *)
let[@inline] push_return regs mem cells ~brk pc =
  let top = Int64.pred (reg regs Regalloc.sp) in
  set_reg regs Regalloc.sp top;
  if top <= Int64.of_int brk then raise (Trap (Stack_overflow, pc));
  let cell = cell_of cells top pc in
  store mem cell (Int64.of_int (pc + 1));
  cell

(* The first argument of a builtin taking [n]: the caller stored them
   just above the stack pointer, the last one nearest.  Reading it is
   not a D-cache access. *)
let[@inline] sys_arg regs mem cells pc n =
  let addr = Int64.add (reg regs Regalloc.sp) (Int64.of_int (n - 1)) in
  load mem (cell_of cells addr pc)

let run ?(config = default_config) (image : Layout.image) : result =
  Telemetry.Collector.with_span "machine.sim" @@ fun () ->
  let s = borrow () in
  Fun.protect ~finally:(fun () -> give_back s) @@ fun () ->
  decode s image.Layout.code;
  let ops = s.ops and fa = s.fa and fb = s.fb and fc = s.fc and imm = s.imm in
  let ncode = Array.length image.Layout.code in
  let cells = Int64.of_int config.memory_cells in
  let mem = memory s config.memory_cells in
  let poke a v =
    if a < 0 || a >= config.memory_cells then invalid_arg "index out of bounds";
    store mem a v
  in
  List.iter (fun (cell, v) -> poke cell v) image.Layout.global_init;
  let regs = Bytes.make (nregs * 8) '\000' in
  let icache = Cache.create config.icache in
  let dcache = Cache.create config.dcache in
  let predictor = Branch_predictor.create ~entries:config.predictor_entries () in
  let { icache_miss; dcache_miss; branch_mispredict; mul_extra; div_extra } =
    config.penalties
  in
  let max_instructions = config.max_instructions in
  let sp = Regalloc.sp and rv = Regalloc.result_reg in
  let output = Buffer.create 256 in
  let brk = ref image.Layout.data_break in
  let instructions = ref 0 in
  (* Cycles beyond the one every instruction costs. *)
  let cycles = ref 0 in
  let pc = ref image.Layout.main_entry in
  let sp_init = config.memory_cells - 1 in
  set_reg regs sp (Int64.of_int sp_init);
  poke sp_init (Int64.of_int Layout.halt_address);  (* return into halt *)
  (* The I-cache line of the last fetch that went to the cache, as the
     addresses [line_lo, line_hi), cut off at the end of the code.  A
     fetch inside it is a repeat access, which changes nothing in the
     cache but its access count: it skips the cache and the jump check,
     and is credited to the cache when the run ends. *)
  let line_words = config.icache.Cache.line_words in
  let line_shift = icache.Cache.line_shift in
  let line_lo = ref 0 and line_hi = ref 0 in
  let running = ref true in
  while !running do
    let here = !pc in
    if here < !line_lo || here >= !line_hi then begin
      if here < 0 || here >= ncode then raise (Trap (Bad_jump here, here));
      if not (Cache.access icache here) then cycles := !cycles + icache_miss;
      let lo =
        if line_shift >= 0 then (here lsr line_shift) lsl line_shift
        else here - (here mod line_words)
      in
      line_lo := lo;
      line_hi := if lo + line_words < ncode then lo + line_words else ncode
    end;
    incr instructions;
    if !instructions > max_instructions then
      raise (Trap (Out_of_instructions, here));
    let a = Array.unsafe_get fa here in
    let b = Array.unsafe_get fb here in
    let c = Array.unsafe_get fc here in
    pc := here + 1;
    match Array.unsafe_get ops here with
    | Halt -> running := false
    | Li -> set_reg regs a (get64u imm (c lsl 3))
    | Mov -> set_reg regs a (reg regs b)
    | Neg -> set_reg regs a (Int64.neg (reg regs b))
    | Not -> set_reg regs a (if reg regs b = 0L then 1L else 0L)
    | Addi ->
      set_reg regs a (Int64.add (reg regs b) (Int64.of_int c));
      if a = sp && reg regs sp <= Int64.of_int !brk then
        raise (Trap (Stack_overflow, here))
    | Load ->
      let cell = cell_of cells (Int64.add (reg regs b) (Int64.of_int c)) here in
      if not (Cache.access dcache cell) then cycles := !cycles + dcache_miss;
      set_reg regs a (load mem cell)
    | Store ->
      let cell = cell_of cells (Int64.add (reg regs a) (Int64.of_int c)) here in
      if not (Cache.access dcache cell) then cycles := !cycles + dcache_miss;
      store mem cell (reg regs b)
    | Add -> set_reg regs a (Int64.add (reg regs b) (reg regs c))
    | Sub -> set_reg regs a (Int64.sub (reg regs b) (reg regs c))
    | Mul ->
      cycles := !cycles + mul_extra;
      set_reg regs a (Int64.mul (reg regs b) (reg regs c))
    | Div ->
      cycles := !cycles + div_extra;
      let x = reg regs b and y = reg regs c in
      if y = 0L then raise (Trap (Division_by_zero, here));
      set_reg regs a (Int64.div x y)
    | Rem ->
      cycles := !cycles + div_extra;
      let x = reg regs b and y = reg regs c in
      if y = 0L then raise (Trap (Division_by_zero, here));
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
    | Jmp ->
      Branch_predictor.unconditional predictor;
      pc := b
    | Beqz ->
      let taken = reg regs a = 0L in
      if not (Branch_predictor.conditional predictor ~pc:here ~taken) then
        cycles := !cycles + branch_mispredict;
      if taken then pc := b
    | Bnez ->
      let taken = reg regs a <> 0L in
      if not (Branch_predictor.conditional predictor ~pc:here ~taken) then
        cycles := !cycles + branch_mispredict;
      if taken then pc := b
    | Call ->
      Branch_predictor.unconditional predictor;
      let cell = push_return regs mem cells ~brk:!brk here in
      if not (Cache.access dcache cell) then cycles := !cycles + dcache_miss;
      pc := b
    | Calli ->
      Branch_predictor.always_mispredicted predictor;
      cycles := !cycles + branch_mispredict;
      let cell = push_return regs mem cells ~brk:!brk here in
      if not (Cache.access dcache cell) then cycles := !cycles + dcache_miss;
      pc := Int64.to_int (reg regs a)
    | Ret ->
      Branch_predictor.always_mispredicted predictor;
      cycles := !cycles + branch_mispredict;
      let top = reg regs sp in
      let cell = cell_of cells top here in
      if not (Cache.access dcache cell) then cycles := !cycles + dcache_miss;
      set_reg regs sp (Int64.succ top);
      pc := Int64.to_int (load mem cell)
    | Print_int ->
      Buffer.add_string output (Int64.to_string (sys_arg regs mem cells here c));
      Buffer.add_char output '\n';
      set_reg regs rv 0L
    | Print_char ->
      let v = sys_arg regs mem cells here c in
      Buffer.add_char output (Char.chr (Int64.to_int (Int64.logand v 255L)));
      set_reg regs rv 0L
    | Alloc ->
      let k = Int64.to_int (sys_arg regs mem cells here c) in
      (* Compared against the room left, so a huge [k] cannot overflow
         the sum. *)
      if k < 0 || k >= Int64.to_int (reg regs sp) - !brk then
        raise (Trap (Out_of_memory, here));
      set_reg regs rv (Int64.of_int !brk);
      brk := !brk + k
    | Abort -> raise (Trap (Aborted, here))
  done;
  let cycles = !instructions + !cycles in
  Cache.add_repeats icache (!instructions - icache.Cache.accesses);
  if Telemetry.Collector.enabled () then begin
    Telemetry.Collector.annotate "instructions" (Telemetry.Event.Int !instructions);
    Telemetry.Collector.annotate "cycles" (Telemetry.Event.Int cycles);
    Telemetry.Collector.count "machine.instructions" !instructions;
    Telemetry.Collector.count "machine.cycles" cycles;
    Telemetry.Collector.count "machine.icache_misses" icache.Cache.misses;
    Telemetry.Collector.count "machine.dcache_misses" dcache.Cache.misses;
    Telemetry.Collector.count "machine.branch_mispredicts"
      predictor.Branch_predictor.mispredicts
  end;
  { exit_code = reg regs rv;
    output = Buffer.contents output;
    metrics =
      { Metrics.instructions = !instructions; cycles;
        icache_accesses = icache.Cache.accesses;
        icache_misses = icache.Cache.misses;
        dcache_accesses = dcache.Cache.accesses;
        dcache_misses = dcache.Cache.misses;
        branches = predictor.Branch_predictor.branches;
        branch_mispredicts = predictor.Branch_predictor.mispredicts } }

(** Compile (lower + lay out) and simulate a ucode program. *)
let run_program ?config (p : U.program) : result =
  let image =
    Telemetry.Collector.with_span "machine.layout" (fun () -> Layout.build p)
  in
  run ?config image
