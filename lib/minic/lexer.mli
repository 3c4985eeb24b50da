(** Hand-written lexer for MiniC: decimal/hex integers, character
    literals with escapes, [//] and [/* */] comments.  A pull lexer:
    tokens come one at a time from {!next}, and no token list is built;
    every token carries its position. *)

type lexed = { tok : Token.t; pos : Diag.pos }

exception Lex_error of Diag.t

(** A lexer positioned at the start of one source file. *)
type t

val create : file:string -> string -> t

(** The next token, or raises {!Lex_error}.  At the end of the source
    it returns [EOF], and again on every later call. *)
val next : t -> lexed

(** Tokenize a whole source file by calling {!next} until [EOF]; the
    result always ends with [EOF]. *)
val tokenize : file:string -> string -> lexed list
