(** Code and data layout: whole program to executable image.

    Instruction memory: address 0 holds the halt stub; routines follow
    in program order.  A routine's handle *is* its entry address, so an
    [Mla rd, routine] becomes a plain immediate load and an indirect
    call jumps straight to the loaded address.

    Data memory mirrors the interpreter's layout exactly — cell 0
    reserved, globals from cell 1 in program order, the allocator break
    after them — so a program produces bit-identical output on both
    engines.  The stack grows down from the top of data memory. *)

module U = Ucode.Types
module V = Vinsn

type image = {
  code : V.t array;
  entries : (string * int) list;       (** routine name -> entry address *)
  routine_extent : (string * (int * int)) list;
      (** routine -> (first, one-past-last) address, for attribution *)
  global_bases : (string * int) list;
  data_break : int;  (** first data cell not used by globals *)
  global_init : (int * int64) list;    (** cell -> initial value *)
  main_entry : int;
}

let halt_address = 0

let build (p : U.program) : image =
  let index = Ucode.Index.of_program p in
  let arity_of = Ucode.Index.arity index in
  let is_routine = Ucode.Index.mem index in
  let lowered =
    List.map (Lower.lower_routine ~arity_of ~is_routine) p.U.p_routines
  in
  (* Pass 1: place code. *)
  let entries = Hashtbl.create 64 in
  let extents = ref [] in
  let pos = ref 1 (* 0 = halt stub *) in
  List.iter
    (fun (lw : Lower.lowered) ->
      Hashtbl.replace entries lw.Lower.lw_name !pos;
      extents := (lw.Lower.lw_name, (!pos, !pos + Array.length lw.Lower.lw_code))
                 :: !extents;
      pos := !pos + Array.length lw.Lower.lw_code)
    lowered;
  (* Data layout, identical to {!Interp}. *)
  let global_bases = ref [] in
  let global_base = Hashtbl.create 64 in
  let global_init = ref [] in
  let next = ref 1 in
  List.iter
    (fun (g : U.global) ->
      global_bases := (g.U.g_name, !next) :: !global_bases;
      Hashtbl.replace global_base g.U.g_name !next;
      List.iteri (fun i v -> global_init := (!next + i, v) :: !global_init)
        g.U.g_init;
      next := !next + g.U.g_size)
    p.U.p_globals;
  let entry_of name =
    match Hashtbl.find_opt entries name with
    | Some a -> a
    | None -> invalid_arg ("Layout.build: undefined routine " ^ name)
  in
  let base_of name =
    match Hashtbl.find_opt global_base name with
    | Some a -> a
    | None -> invalid_arg ("Layout.build: undefined global " ^ name)
  in
  (* Pass 2: patch targets. *)
  let code = Array.make !pos V.Mhalt in
  List.iter
    (fun (lw : Lower.lowered) ->
      let base = Hashtbl.find entries lw.Lower.lw_name in
      let patch_target = function
        | V.Tlocal off -> V.Taddr (base + off)
        | V.Troutine n -> V.Taddr (entry_of n)
        | V.Taddr a -> V.Taddr a
        | V.Tblock _ | V.Tglobal _ ->
          invalid_arg "Layout.build: unresolved branch target"
      in
      Array.iteri
        (fun i insn ->
          let insn' =
            match insn with
            | V.Mla (d, V.Troutine n) -> V.Mli (d, Int64.of_int (entry_of n))
            | V.Mla (d, V.Tglobal g) -> V.Mli (d, Int64.of_int (base_of g))
            | V.Mla (_, _) -> invalid_arg "Layout.build: bad Mla target"
            | V.Mjmp t -> V.Mjmp (patch_target t)
            | V.Mbeqz (r, t) -> V.Mbeqz (r, patch_target t)
            | V.Mbnez (r, t) -> V.Mbnez (r, patch_target t)
            | V.Mcall t -> V.Mcall (patch_target t)
            | other -> other
          in
          code.(base + i) <- insn')
        lw.Lower.lw_code)
    lowered;
  { code;
    entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) entries [];
    routine_extent = List.rev !extents;
    global_bases = List.rev !global_bases; data_break = !next;
    global_init = List.rev !global_init;
    main_entry = entry_of p.U.p_main }

let code_size image = Array.length image.code

(** Disassembly listing, for debugging and the CLI's [--dump-asm]. *)
let pp ppf image =
  let starts = Hashtbl.create 64 in
  List.iter
    (fun (name, (first, _)) ->
      if not (Hashtbl.mem starts first) then Hashtbl.add starts first name)
    image.routine_extent;
  Array.iteri
    (fun addr insn ->
      (match Hashtbl.find_opt starts addr with
      | Some name -> Fmt.pf ppf "%s:@." name
      | None -> ());
      Fmt.pf ppf "  %4d: %a@." addr V.pp insn)
    image.code
