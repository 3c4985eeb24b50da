(** The intermediate representation shared by the whole system.

    This plays the role of HP's [ucode]: a language- and
    machine-independent program representation that the front end
    produces, that HLO transforms, and that the back end consumes.  A
    program is a set of routines tagged with the module they came from;
    each routine is a control-flow graph of basic blocks over an
    unbounded pool of virtual registers.

    Values are untyped 64-bit integers.  Memory is a flat array of
    64-bit cells addressed by integers; globals are allocated in it at
    link time.  Function values are represented by small integer
    handles produced by [Faddr], enabling indirect calls through
    registers — the ingredient behind the paper's staged
    devirtualization (clone + constant propagation turns an indirect
    call into a direct, inlinable one).

    All structures are immutable; transformations build new values. *)

type reg = int
(** A virtual register, dense from 0 within a routine. *)

type label = int
(** A basic-block identifier, unique within a routine. *)

type site = int
(** A call-site identifier, unique within a whole program.  Profile
    data is keyed by sites, so every textual call instruction — even
    copies made by inlining and cloning — gets a fresh site. *)

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Not

type callee =
  | Direct of string  (** call by name (resolved at link time) *)
  | Indirect of reg   (** call through a function handle in a register *)

type call = {
  c_dst : reg option;     (** destination of the return value, if used *)
  c_callee : callee;
  c_args : reg list;
  c_site : site;
}

type instr =
  | Const of reg * int64        (** [r <- imm] *)
  | Faddr of reg * string       (** [r <- handle of routine] *)
  | Gaddr of reg * string       (** [r <- address of global] *)
  | Unop of reg * unop * reg    (** [r <- op r1] *)
  | Binop of reg * binop * reg * reg  (** [r <- r1 op r2] *)
  | Move of reg * reg           (** [r <- r1] *)
  | Load of reg * reg           (** [r <- mem[r1]] *)
  | Store of reg * reg          (** [mem[r1] <- r2] *)
  | Call of call

type terminator =
  | Jump of label
  | Branch of reg * label * label  (** if reg <> 0 then first else second *)
  | Return of reg option

type block = {
  b_id : label;
  b_instrs : instr list;
  b_term : terminator;
}

type linkage =
  | Exported      (** visible to every module *)
  | Module_local  (** C [static]: visible only within its module *)

(** Floating-point/semantics model recorded in the IR.  The paper's
    inliner refuses sites where caller and callee disagree on whether
    reassociation is permitted; we carry the same bit. *)
type fp_model = Strict | Relaxed

type attrs = {
  a_varargs : bool;     (** callee takes a variable argument list *)
  a_alloca : bool;      (** callee dynamically allocates stack space *)
  a_fp_model : fp_model;
  a_no_inline : bool;   (** user directive: never inline this routine *)
  a_no_clone : bool;    (** user directive: never clone this routine *)
}

let default_attrs =
  { a_varargs = false; a_alloca = false; a_fp_model = Strict;
    a_no_inline = false; a_no_clone = false }

(** Where a routine came from, for reporting. *)
type origin =
  | From_source
  | Clone_of of string  (** name of the routine this was cloned from *)

type routine = {
  r_name : string;        (** unique within the program after linking *)
  r_module : string;
  r_params : reg list;
  r_blocks : block list;  (** head is the entry block *)
  r_next_reg : int;       (** all registers used are < r_next_reg *)
  r_next_label : int;     (** all labels used are < r_next_label *)
  r_attrs : attrs;
  r_linkage : linkage;
  r_origin : origin;
}

type global = {
  g_name : string;    (** unique within the program after linking *)
  g_module : string;
  g_size : int;       (** number of 64-bit cells *)
  g_init : int64 list;(** initial values for a prefix of the cells *)
  g_linkage : linkage;
}

type program = {
  p_routines : routine list;
  p_globals : global list;
  p_main : string;
  p_next_site : site;  (** fresh call-site allocator *)
}

module String_map = Map.Make (String)
module String_set = Set.Make (String)
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Small accessors used throughout the code base.                      *)

let entry_block r =
  match r.r_blocks with
  | b :: _ -> b
  | [] -> invalid_arg ("entry_block: routine " ^ r.r_name ^ " has no blocks")

let find_block r l =
  List.find_opt (fun b -> b.b_id = l) r.r_blocks

let find_block_exn r l =
  match find_block r l with
  | Some b -> b
  | None ->
    invalid_arg
      (Printf.sprintf "find_block: no block %d in routine %s" l r.r_name)

let find_routine p name =
  List.find_opt (fun r -> r.r_name = name) p.p_routines

let find_routine_exn p name =
  match find_routine p name with
  | Some r -> r
  | None -> invalid_arg ("find_routine: no routine named " ^ name)

let find_global p name =
  List.find_opt (fun g -> g.g_name = name) p.p_globals

(** Replace the routine with the same name, preserving order. *)
let update_routine p r =
  let replaced = ref false in
  let routines =
    List.map
      (fun r0 -> if r0.r_name = r.r_name then (replaced := true; r) else r0)
      p.p_routines
  in
  if not !replaced then invalid_arg ("update_routine: unknown " ^ r.r_name);
  { p with p_routines = routines }

let remove_routines p names =
  let dead = String_set.of_list names in
  { p with
    p_routines =
      List.filter (fun r -> not (String_set.mem r.r_name dead)) p.p_routines }

(* ------------------------------------------------------------------ *)
(* Register use/def structure of instructions.                         *)

(** Registers read by an instruction. *)
let instr_uses = function
  | Const _ | Faddr _ | Gaddr _ -> []
  | Unop (_, _, a) -> [ a ]
  | Binop (_, _, a, b) -> [ a; b ]
  | Move (_, a) -> [ a ]
  | Load (_, a) -> [ a ]
  | Store (a, v) -> [ a; v ]
  | Call { c_callee; c_args; _ } ->
    (match c_callee with Indirect r -> r :: c_args | Direct _ -> c_args)

(** Register written by an instruction, if any. *)
let instr_def = function
  | Const (d, _) | Faddr (d, _) | Gaddr (d, _)
  | Unop (d, _, _) | Binop (d, _, _, _) | Move (d, _) | Load (d, _) -> Some d
  | Store _ -> None
  | Call { c_dst; _ } -> c_dst

let term_uses = function
  | Jump _ -> []
  | Branch (r, _, _) -> [ r ]
  | Return (Some r) -> [ r ]
  | Return None -> []

(* The same without building an option or a list, for the passes that
   run on every instruction. *)

(** The register an instruction defines, or [-1]: {!instr_def} without
    the option. *)
let instr_def_reg = function
  | Const (d, _) | Faddr (d, _) | Gaddr (d, _) | Unop (d, _, _)
  | Binop (d, _, _, _) | Move (d, _) | Load (d, _)
  | Call { c_dst = Some d; _ } -> d
  | Store _ | Call { c_dst = None; _ } -> -1

(** [f] on each register an instruction reads, in the order of
    {!instr_uses}. *)
let iter_instr_uses f = function
  | Const _ | Faddr _ | Gaddr _ -> ()
  | Unop (_, _, a) | Move (_, a) | Load (_, a) -> f a
  | Binop (_, _, a, b) | Store (a, b) -> f a; f b
  | Call { c_callee; c_args; _ } ->
    (match c_callee with Indirect x -> f x | Direct _ -> ());
    List.iter f c_args

(** [f] on each register a terminator reads, in the order of
    {!term_uses}. *)
let iter_term_uses f = function
  | Branch (x, _, _) | Return (Some x) -> f x
  | Jump _ | Return None -> ()

let term_targets = function
  | Jump l -> [ l ]
  | Branch (_, l1, l2) -> [ l1; l2 ]
  | Return _ -> []

(** Apply [f] to every register mentioned by the instruction (both uses
    and the def). *)
let map_instr_regs f = function
  | Const (d, k) -> Const (f d, k)
  | Faddr (d, n) -> Faddr (f d, n)
  | Gaddr (d, n) -> Gaddr (f d, n)
  | Unop (d, op, a) -> Unop (f d, op, f a)
  | Binop (d, op, a, b) -> Binop (f d, op, f a, f b)
  | Move (d, a) -> Move (f d, f a)
  | Load (d, a) -> Load (f d, f a)
  | Store (a, v) -> Store (f a, f v)
  | Call c ->
    let c_callee =
      match c.c_callee with
      | Direct n -> Direct n
      | Indirect r -> Indirect (f r)
    in
    Call { c with c_dst = Option.map f c.c_dst; c_callee;
                  c_args = List.map f c.c_args }

(** Apply [f] to the *use* positions only, leaving defs alone. *)
let map_instr_uses f = function
  | Const (d, k) -> Const (d, k)
  | Faddr (d, n) -> Faddr (d, n)
  | Gaddr (d, n) -> Gaddr (d, n)
  | Unop (d, op, a) -> Unop (d, op, f a)
  | Binop (d, op, a, b) -> Binop (d, op, f a, f b)
  | Move (d, a) -> Move (d, f a)
  | Load (d, a) -> Load (d, f a)
  | Store (a, v) -> Store (f a, f v)
  | Call c ->
    let c_callee =
      match c.c_callee with
      | Direct n -> Direct n
      | Indirect r -> Indirect (f r)
    in
    Call { c with c_callee; c_args = List.map f c.c_args }

let map_term_regs f = function
  | Jump l -> Jump l
  | Branch (r, l1, l2) -> Branch (f r, l1, l2)
  | Return r -> Return (Option.map f r)

let map_term_labels f = function
  | Jump l -> Jump (f l)
  | Branch (r, l1, l2) -> Branch (r, f l1, f l2)
  | Return r -> Return r

(** All call instructions of a routine, in block order. *)
let calls_of_routine r =
  List.concat_map
    (fun b ->
      List.filter_map (function Call c -> Some (b, c) | _ -> None) b.b_instrs)
    r.r_blocks

(** Names of builtin external routines known to every engine.  Calls to
    these count as "external" sites in the Figure 5 classification. *)
let builtins = [ "print_int"; "print_char"; "alloc"; "abort" ]

let is_builtin name = List.mem name builtins

let builtin_arity = function
  | "print_int" | "print_char" | "alloc" -> Some 1
  | "abort" -> Some 0
  | _ -> None

(** Arity of any direct-callable name in [p]: a routine's parameter
    count or a builtin's arity. *)
let arity_in_program (p : program) name =
  match find_routine p name with
  | Some r -> Some (List.length r.r_params)
  | None -> builtin_arity name
