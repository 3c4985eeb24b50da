(** Recursive-descent parser for MiniC.

    Menhir is not available in this environment, so the grammar is
    parsed by hand: precedence climbing for binary operators, one-token
    lookahead everywhere, and assignment disambiguated by parsing an
    expression first and reinterpreting it as an lvalue when an [=]
    follows. *)

open Ast

exception Parse_error of Diag.t

let fail pos fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Diag.error pos "%s" m))) fmt

(* One token of lookahead, pulled from the lexer as the parse steps
   past it; [EOF] is never stepped past. *)
type state = { lexer : Lexer.t; mutable current : Lexer.lexed }

let peek_tok st = st.current.Lexer.tok
let peek_pos st = st.current.Lexer.pos

let advance st =
  match st.current.Lexer.tok with
  | Token.EOF -> ()
  | _ -> st.current <- Lexer.next st.lexer

let expect st tok =
  if peek_tok st = tok then advance st
  else
    fail (peek_pos st) "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek_tok st))

let expect_ident st =
  match peek_tok st with
  | Token.IDENT name ->
    advance st;
    name
  | t -> fail (peek_pos st) "expected identifier but found %s" (Token.to_string t)

let expect_int st =
  match peek_tok st with
  | Token.INT v ->
    advance st;
    v
  | Token.MINUS -> (
    advance st;
    match peek_tok st with
    | Token.INT v ->
      advance st;
      Int64.neg v
    | t -> fail (peek_pos st) "expected integer but found %s" (Token.to_string t))
  | t -> fail (peek_pos st) "expected integer but found %s" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)

let binop_of_token = function
  | Token.PIPEPIPE -> Some (Lor, 1)
  | Token.AMPAMP -> Some (Land, 2)
  | Token.PIPE -> Some (Bor, 3)
  | Token.CARET -> Some (Bxor, 4)
  | Token.AMP -> Some (Band, 5)
  | Token.EQ -> Some (Eq, 6)
  | Token.NE -> Some (Ne, 6)
  | Token.LT -> Some (Lt, 7)
  | Token.LE -> Some (Le, 7)
  | Token.GT -> Some (Gt, 7)
  | Token.GE -> Some (Ge, 7)
  | Token.SHL -> Some (Shl, 8)
  | Token.SHR -> Some (Shr, 8)
  | Token.PLUS -> Some (Add, 9)
  | Token.MINUS -> Some (Sub, 9)
  | Token.STAR -> Some (Mul, 10)
  | Token.SLASH -> Some (Div, 10)
  | Token.PERCENT -> Some (Rem, 10)
  | _ -> None

let rec parse_expr st = parse_binary st 1

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (peek_tok st) with
    | Some (op, prec) when prec >= min_prec ->
      let pos = peek_pos st in
      advance st;
      let rhs = parse_binary st (prec + 1) in
      lhs := { e = Binary (op, !lhs, rhs); e_pos = pos }
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  let pos = peek_pos st in
  match peek_tok st with
  | Token.MINUS ->
    advance st;
    { e = Unary (Neg, parse_unary st); e_pos = pos }
  | Token.BANG ->
    advance st;
    { e = Unary (Lnot, parse_unary st); e_pos = pos }
  | _ -> parse_postfix st

and parse_postfix st =
  let base = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek_tok st with
    | Token.LBRACKET ->
      let pos = peek_pos st in
      advance st;
      let idx = parse_expr st in
      expect st Token.RBRACKET;
      base := { e = Index (!base, idx); e_pos = pos }
    | _ -> continue_ := false
  done;
  !base

and parse_primary st =
  let pos = peek_pos st in
  match peek_tok st with
  | Token.INT v ->
    advance st;
    { e = Int v; e_pos = pos }
  | Token.AMP ->
    advance st;
    let name = expect_ident st in
    { e = Addr_of name; e_pos = pos }
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    e
  | Token.IDENT name -> (
    advance st;
    match peek_tok st with
    | Token.LPAREN ->
      advance st;
      let args = parse_args st in
      { e = Call (name, args); e_pos = pos }
    | _ -> { e = Ident name; e_pos = pos })
  | t -> fail pos "expected expression but found %s" (Token.to_string t)

and parse_args st =
  if peek_tok st = Token.RPAREN then begin
    advance st;
    []
  end
  else
    let rec loop acc =
      let e = parse_expr st in
      match peek_tok st with
      | Token.COMMA ->
        advance st;
        loop (e :: acc)
      | Token.RPAREN ->
        advance st;
        List.rev (e :: acc)
      | t -> fail (peek_pos st) "expected , or ) but found %s" (Token.to_string t)
    in
    loop []

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

(** An assignment or expression statement, without the trailing
    semicolon (shared by plain statements and [for] headers). *)
let rec parse_simple_stmt st =
  let pos = peek_pos st in
  match peek_tok st with
  | Token.KW_VAR ->
    advance st;
    let name = expect_ident st in
    expect st Token.ASSIGN;
    let e = parse_expr st in
    { s = Decl (name, e); s_pos = pos }
  | _ -> (
    let e = parse_expr st in
    match peek_tok st with
    | Token.ASSIGN -> (
      advance st;
      let value = parse_expr st in
      match e.e with
      | Ident name -> { s = Assign (name, value); s_pos = pos }
      | Index (base, idx) -> { s = Index_assign (base, idx, value); s_pos = pos }
      | _ -> fail pos "left-hand side of assignment is not assignable")
    | _ -> { s = Expr e; s_pos = pos })

and parse_stmt st =
  let pos = peek_pos st in
  match peek_tok st with
  | Token.KW_IF ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    let then_ = parse_block st in
    let else_ =
      if peek_tok st = Token.KW_ELSE then begin
        advance st;
        if peek_tok st = Token.KW_IF then [ parse_stmt st ] else parse_block st
      end
      else []
    in
    { s = If (cond, then_, else_); s_pos = pos }
  | Token.KW_WHILE ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    let body = parse_block st in
    { s = While (cond, body); s_pos = pos }
  | Token.KW_FOR ->
    advance st;
    expect st Token.LPAREN;
    let init =
      if peek_tok st = Token.SEMI then None else Some (parse_simple_stmt st)
    in
    expect st Token.SEMI;
    let cond = if peek_tok st = Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    let step =
      if peek_tok st = Token.RPAREN then None else Some (parse_simple_stmt st)
    in
    expect st Token.RPAREN;
    let body = parse_block st in
    { s = For (init, cond, step, body); s_pos = pos }
  | Token.KW_RETURN ->
    advance st;
    let value = if peek_tok st = Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    { s = Return value; s_pos = pos }
  | Token.KW_BREAK ->
    advance st;
    expect st Token.SEMI;
    { s = Break; s_pos = pos }
  | Token.KW_CONTINUE ->
    advance st;
    expect st Token.SEMI;
    { s = Continue; s_pos = pos }
  | _ ->
    let s = parse_simple_stmt st in
    expect st Token.SEMI;
    s

and parse_block st =
  expect st Token.LBRACE;
  let rec loop acc =
    if peek_tok st = Token.RBRACE then begin
      advance st;
      List.rev acc
    end
    else loop (parse_stmt st :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Top-level declarations.                                             *)

let parse_func_attrs st =
  let attrs = ref default_func_attrs in
  let continue_ = ref true in
  while !continue_ do
    match peek_tok st with
    | Token.KW_STATIC ->
      advance st;
      attrs := { !attrs with fa_static = true }
    | Token.KW_NOINLINE ->
      advance st;
      attrs := { !attrs with fa_noinline = true }
    | Token.KW_NOCLONE ->
      advance st;
      attrs := { !attrs with fa_noclone = true }
    | Token.KW_VARARGS ->
      advance st;
      attrs := { !attrs with fa_varargs = true }
    | Token.KW_ALLOCA ->
      advance st;
      attrs := { !attrs with fa_alloca = true }
    | Token.KW_FPRELAXED ->
      advance st;
      attrs := { !attrs with fa_fprelaxed = true }
    | _ -> continue_ := false
  done;
  !attrs

let parse_global st ~public =
  let pos = peek_pos st in
  expect st Token.KW_GLOBAL;
  let name = expect_ident st in
  let size, is_array =
    if peek_tok st = Token.LBRACKET then begin
      advance st;
      let n = expect_int st in
      expect st Token.RBRACKET;
      if Int64.compare n 1L < 0 || Int64.compare n 1_000_000L > 0 then
        fail pos "array size %Ld out of range" n;
      (Int64.to_int n, true)
    end
    else (1, false)
  in
  let init =
    if peek_tok st = Token.ASSIGN then begin
      advance st;
      if peek_tok st = Token.LBRACE then begin
        advance st;
        let rec loop acc =
          let v = expect_int st in
          match peek_tok st with
          | Token.COMMA ->
            advance st;
            loop (v :: acc)
          | Token.RBRACE ->
            advance st;
            List.rev (v :: acc)
          | t ->
            fail (peek_pos st) "expected , or } but found %s" (Token.to_string t)
        in
        loop []
      end
      else [ expect_int st ]
    end
    else []
  in
  expect st Token.SEMI;
  if List.length init > size then fail pos "initializer longer than %s" name;
  { g_name = name; g_public = public; g_size = size; g_is_array = is_array;
    g_init = init; g_pos = pos }

let parse_unit st ~module_name : unit_ =
  let funcs = ref [] in
  let globals = ref [] in
  let rec loop () =
    match peek_tok st with
    | Token.EOF -> ()
    | Token.KW_PUBLIC ->
      advance st;
      globals := parse_global st ~public:true :: !globals;
      loop ()
    | Token.KW_GLOBAL ->
      globals := parse_global st ~public:false :: !globals;
      loop ()
    | _ ->
      let pos = peek_pos st in
      let attrs = parse_func_attrs st in
      expect st Token.KW_FUNC;
      let name = expect_ident st in
      expect st Token.LPAREN;
      let params =
        if peek_tok st = Token.RPAREN then begin
          advance st;
          []
        end
        else
          let rec params_loop acc =
            let p = expect_ident st in
            match peek_tok st with
            | Token.COMMA ->
              advance st;
              params_loop (p :: acc)
            | Token.RPAREN ->
              advance st;
              List.rev (p :: acc)
            | t ->
              fail (peek_pos st) "expected , or ) but found %s"
                (Token.to_string t)
          in
          params_loop []
      in
      let body = parse_block st in
      funcs :=
        { f_name = name; f_params = params; f_body = body; f_attrs = attrs;
          f_pos = pos }
        :: !funcs;
      loop ()
  in
  loop ();
  { u_name = module_name; u_funcs = List.rev !funcs; u_globals = List.rev !globals }

(** Parse one module from source text.  The first lexical error in
    the file wins over any parse error, as if the whole file were lexed
    before parsing: on a parse error the rest of the file is lexed, and
    a lexical error found there is raised instead. *)
let parse ~module_name ~file src =
  let lexer = Lexer.create ~file src in
  let st = { lexer; current = Lexer.next lexer } in
  try parse_unit st ~module_name
  with Parse_error _ as e ->
    let rec drain () =
      match (Lexer.next lexer).Lexer.tok with Token.EOF -> () | _ -> drain ()
    in
    drain ();
    raise e
