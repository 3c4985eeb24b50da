(** Tokens of the MiniC language. *)

type t =
  | INT of int64
  | IDENT of string
  (* keywords *)
  | KW_FUNC | KW_STATIC | KW_PUBLIC | KW_GLOBAL | KW_VAR
  | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE
  | KW_NOINLINE | KW_NOCLONE | KW_VARARGS | KW_ALLOCA | KW_FPRELAXED
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | ASSIGN
  (* operators *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | SHL | SHR
  | AMPAMP | PIPEPIPE | BANG
  | EQ | NE | LT | LE | GT | GE
  | EOF

(** The token a word lexes to: its keyword, or [IDENT word]. *)
let of_word = function
  | "func" -> KW_FUNC | "static" -> KW_STATIC | "public" -> KW_PUBLIC
  | "global" -> KW_GLOBAL | "var" -> KW_VAR | "if" -> KW_IF | "else" -> KW_ELSE
  | "while" -> KW_WHILE | "for" -> KW_FOR | "return" -> KW_RETURN
  | "break" -> KW_BREAK | "continue" -> KW_CONTINUE
  | "noinline" -> KW_NOINLINE | "noclone" -> KW_NOCLONE
  | "varargs" -> KW_VARARGS | "alloca" -> KW_ALLOCA
  | "fprelaxed" -> KW_FPRELAXED
  | word -> IDENT word

let to_string = function
  | INT i -> Int64.to_string i
  | IDENT s -> s
  | KW_FUNC -> "func" | KW_STATIC -> "static" | KW_PUBLIC -> "public"
  | KW_GLOBAL -> "global" | KW_VAR -> "var" | KW_IF -> "if"
  | KW_ELSE -> "else" | KW_WHILE -> "while" | KW_FOR -> "for"
  | KW_RETURN -> "return" | KW_BREAK -> "break" | KW_CONTINUE -> "continue"
  | KW_NOINLINE -> "noinline" | KW_NOCLONE -> "noclone"
  | KW_VARARGS -> "varargs" | KW_ALLOCA -> "alloca"
  | KW_FPRELAXED -> "fprelaxed"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]" | COMMA -> "," | SEMI -> ";"
  | ASSIGN -> "=" | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/"
  | PERCENT -> "%" | AMP -> "&" | PIPE -> "|" | CARET -> "^"
  | SHL -> "<<" | SHR -> ">>" | AMPAMP -> "&&" | PIPEPIPE -> "||"
  | BANG -> "!" | EQ -> "==" | NE -> "!=" | LT -> "<" | LE -> "<="
  | GT -> ">" | GE -> ">=" | EOF -> "<eof>"
