(** Hand-written lexer for MiniC.

    A pull lexer: {!next} returns one token at a time, so the parser
    holds only the token it is looking at and no token list is ever
    built.  Each token carries its starting position.  Supports decimal
    and hexadecimal integers, character literals, [//] line comments and
    [/* */] block comments (non-nesting, like C). *)

type lexed = { tok : Token.t; pos : Diag.pos }

exception Lex_error of Diag.t

let fail pos fmt =
  Printf.ksprintf (fun m -> raise (Lex_error (Diag.error pos "%s" m))) fmt

type t = {
  src : string;
  file : string;
  mutable off : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
}

let create ~file src = { src; file; off = 0; line = 1; bol = 0 }

let pos_of st =
  { Diag.file = st.file; line = st.line; col = st.off - st.bol + 1 }

(* Past the end, [peek] and [peek2] return ['\000'].  A NUL byte in the
   source reads the same, so wherever the two must differ the code asks
   [at_end] first. *)
let at_end st = st.off >= String.length st.src

let peek st =
  if st.off < String.length st.src then String.unsafe_get st.src st.off
  else '\000'

let peek2 st =
  if st.off + 1 < String.length st.src then
    String.unsafe_get st.src (st.off + 1)
  else '\000'

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.off + 1
  end;
  st.off <- st.off + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws_and_comments st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
    advance st;
    skip_ws_and_comments st
  | '/' when peek2 st = '/' ->
    while (not (at_end st)) && peek st <> '\n' do
      advance st
    done;
    skip_ws_and_comments st
  | '/' when peek2 st = '*' ->
    let start = pos_of st in
    advance st;
    advance st;
    let rec loop () =
      if at_end st then fail start "unterminated block comment"
      else if peek st = '*' && peek2 st = '/' then begin
        advance st;
        advance st
      end
      else begin
        advance st;
        loop ()
      end
    in
    loop ();
    skip_ws_and_comments st
  | _ -> ()

let lex_number st =
  let pos = pos_of st in
  let start = st.off in
  if peek st = '0' && (peek2 st = 'x' || peek2 st = 'X') then begin
    advance st;
    advance st;
    while is_hex (peek st) do
      advance st
    done
  end
  else
    while is_digit (peek st) do
      advance st
    done;
  let text = String.sub st.src start (st.off - start) in
  match Int64.of_string_opt text with
  | Some v -> { tok = Token.INT v; pos }
  | None -> fail pos "invalid integer literal %s" text

let lex_char st =
  let pos = pos_of st in
  let unterminated () = fail pos "unterminated character literal" in
  advance st;
  if at_end st then unterminated ();
  let value =
    match peek st with
    | '\\' ->
      advance st;
      if at_end st then unterminated ();
      let c =
        match peek st with
        | 'n' -> '\n'
        | 't' -> '\t'
        | '0' -> '\000'
        | '\\' -> '\\'
        | '\'' -> '\''
        | c -> fail pos "unknown escape \\%c" c
      in
      advance st;
      Int64.of_int (Char.code c)
    | c ->
      advance st;
      Int64.of_int (Char.code c)
  in
  if peek st = '\'' then advance st else unterminated ();
  { tok = Token.INT value; pos }

let lex_ident st =
  let pos = pos_of st in
  let start = st.off in
  while is_ident_char (peek st) do
    advance st
  done;
  { tok = Token.of_word (String.sub st.src start (st.off - start)); pos }

(* Called only before a character: at the end, {!next} answers [EOF]. *)
let lex_operator st =
  let pos = pos_of st in
  let two tok = advance st; advance st; { tok; pos } in
  let one tok = advance st; { tok; pos } in
  match (peek st, peek2 st) with
  | '<', '<' -> two Token.SHL
  | '>', '>' -> two Token.SHR
  | '<', '=' -> two Token.LE
  | '>', '=' -> two Token.GE
  | '=', '=' -> two Token.EQ
  | '!', '=' -> two Token.NE
  | '&', '&' -> two Token.AMPAMP
  | '|', '|' -> two Token.PIPEPIPE
  | '(', _ -> one Token.LPAREN
  | ')', _ -> one Token.RPAREN
  | '{', _ -> one Token.LBRACE
  | '}', _ -> one Token.RBRACE
  | '[', _ -> one Token.LBRACKET
  | ']', _ -> one Token.RBRACKET
  | ',', _ -> one Token.COMMA
  | ';', _ -> one Token.SEMI
  | '=', _ -> one Token.ASSIGN
  | '+', _ -> one Token.PLUS
  | '-', _ -> one Token.MINUS
  | '*', _ -> one Token.STAR
  | '/', _ -> one Token.SLASH
  | '%', _ -> one Token.PERCENT
  | '&', _ -> one Token.AMP
  | '|', _ -> one Token.PIPE
  | '^', _ -> one Token.CARET
  | '!', _ -> one Token.BANG
  | '<', _ -> one Token.LT
  | '>', _ -> one Token.GT
  | c, _ -> fail pos "unexpected character %C" c

(** The next token; [EOF] at the end of the source, and again on every
    later call. *)
let next st =
  skip_ws_and_comments st;
  if at_end st then { tok = Token.EOF; pos = pos_of st }
  else
    let c = peek st in
    if is_digit c then lex_number st
    else if c = '\'' then lex_char st
    else if is_ident_start c then lex_ident st
    else lex_operator st

(** Tokenize a whole source file.  The result always ends with [EOF]. *)
let tokenize ~file src : lexed list =
  let st = create ~file src in
  let rec loop acc =
    let l = next st in
    match l.tok with Token.EOF -> List.rev (l :: acc) | _ -> loop (l :: acc)
  in
  loop []
