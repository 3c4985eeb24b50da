(** Recursive-descent parser for MiniC (precedence climbing for binary
    operators, one-token lookahead pulled from {!Lexer.next};
    assignment disambiguated by parsing an expression and
    reinterpreting it as an lvalue). *)

exception Parse_error of Diag.t

(** Lex and parse one module from source text.  Raises
    {!Lexer.Lex_error} for the first lexical error in the file, even
    when a parse error comes before it, and {!Parse_error} otherwise. *)
val parse : module_name:string -> file:string -> string -> Ast.unit_
