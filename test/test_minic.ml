(* Tests for the MiniC front end: lexer, parser, semantic analysis and
   the observable semantics of lowered programs (via the interpreter). *)

module T = Minic.Token
module Lexer = Minic.Lexer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tokens src =
  List.map (fun l -> l.Lexer.tok) (Lexer.tokenize ~file:"t.mc" src)

(* Compile one module and run it, returning the printed output. *)
let run_src ?(expect_trap = false) src =
  let p = Minic.Compile.compile_string src in
  (match Ucode.Validate.check_program p with
  | [] -> ()
  | errors -> Alcotest.fail (Ucode.Validate.errors_to_string errors));
  if expect_trap then
    match Interp.run p with
    | exception Interp.Trap _ -> "<trap>"
    | r -> Alcotest.fail ("expected a trap, got output: " ^ r.Interp.output)
  else (Interp.run p).Interp.output

(* Errors (not warnings) of a single module program. *)
let errors_of src =
  let u = Minic.Parser.parse ~module_name:"m" ~file:"m.mc" src in
  List.filter Minic.Diag.is_error (Minic.Sema.check u)

let warnings_of src =
  let u = Minic.Parser.parse ~module_name:"m" ~file:"m.mc" src in
  List.filter (fun d -> not (Minic.Diag.is_error d)) (Minic.Sema.check u)

(* ------------------------------------------------------------------ *)
(* Lexer.                                                              *)

let test_lexer_basics () =
  Alcotest.(check bool) "tokens" true
    (tokens "func f(x) { return x + 42; }"
    = [ T.KW_FUNC; T.IDENT "f"; T.LPAREN; T.IDENT "x"; T.RPAREN; T.LBRACE;
        T.KW_RETURN; T.IDENT "x"; T.PLUS; T.INT 42L; T.SEMI; T.RBRACE; T.EOF ])

let test_lexer_numbers () =
  (match tokens "0x10 007 9223372036854775807" with
  | [ T.INT 16L; T.INT 7L; T.INT max; T.EOF ] ->
    check_bool "max int64" true (Int64.equal max Int64.max_int)
  | _ -> Alcotest.fail "number lexing");
  match tokens "'a' '\\n' '\\0'" with
  | [ T.INT 97L; T.INT 10L; T.INT 0L; T.EOF ] -> ()
  | _ -> Alcotest.fail "char literals"

let test_lexer_comments () =
  check_bool "comments skipped" true
    (tokens "1 // line\n /* block \n multi */ 2" = [ T.INT 1L; T.INT 2L; T.EOF ])

let test_lexer_operators () =
  check_bool "two-char ops" true
    (tokens "<< >> <= >= == != && ||"
    = [ T.SHL; T.SHR; T.LE; T.GE; T.EQ; T.NE; T.AMPAMP; T.PIPEPIPE; T.EOF ])

let test_lexer_errors () =
  List.iter
    (fun src ->
      match tokens src with
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail ("lexer accepted: " ^ src))
    [ "@"; "/* unterminated"; "'x" ]

let test_lexer_positions () =
  match Lexer.tokenize ~file:"t.mc" "a\n  b" with
  | [ a; b; _eof ] ->
    check_int "a line" 1 a.Lexer.pos.Minic.Diag.line;
    check_int "b line" 2 b.Lexer.pos.Minic.Diag.line;
    check_int "b col" 3 b.Lexer.pos.Minic.Diag.col
  | _ -> Alcotest.fail "positions"

(* ------------------------------------------------------------------ *)
(* Parser.                                                             *)

let test_parser_precedence () =
  (* 1 + 2 * 3 == 7 must parse as (1 + (2*3)) == 7 -> prints 1 *)
  check_string "mul binds tighter" "1\n"
    (run_src "func main() { print_int(1 + 2 * 3 == 7); return 0; }");
  (* shift binds tighter than compare: 1 << 2 < 3 is (1<<2) < 3 = 0 *)
  check_string "shift vs compare" "0\n"
    (run_src "func main() { print_int(1 << 2 < 3); return 0; }");
  (* bitwise or is lower than xor is lower than and *)
  check_string "bit precedence" "7\n"
    (run_src "func main() { print_int(4 | 2 ^ 1 & 3); return 0; }")

let test_parser_associativity () =
  check_string "sub left assoc" "-4\n"
    (run_src "func main() { print_int(1 - 2 - 3); return 0; }");
  check_string "div left assoc" "2\n"
    (run_src "func main() { print_int(24 / 4 / 3); return 0; }")

let test_parser_else_if () =
  let src = {|
    func classify(x) {
      if (x < 0) { return 0 - 1; }
      else if (x == 0) { return 0; }
      else if (x < 10) { return 1; }
      else { return 2; }
    }
    func main() {
      print_int(classify(0 - 5));
      print_int(classify(0));
      print_int(classify(5));
      print_int(classify(50));
      return 0;
    }
  |} in
  check_string "else-if chain" "-1\n0\n1\n2\n" (run_src src)

let test_parser_errors () =
  List.iter
    (fun src ->
      match Minic.Parser.parse ~module_name:"m" ~file:"m.mc" src with
      | exception Minic.Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail ("parser accepted: " ^ src))
    [ "func f( { }"; "func f() { return 1 }"; "func f() { 1 + ; }";
      "global a[0];"; "func f() { var = 3; }"; "func f() { (1 = 2); }" ]

(* The first lexical error in a file wins over a parse error before it,
   as when the whole file was lexed before parsing. *)
let test_parser_lex_error_wins () =
  let src = "func f() { return 1 + ; }\nfunc g() { return 2; } @" in
  let lex_error =
    match Lexer.tokenize ~file:"m.mc" src with
    | exception Lexer.Lex_error d -> d
    | _ -> Alcotest.fail "lexer accepted the stray @"
  in
  check_int "lex error line" 2 lex_error.Minic.Diag.d_pos.Minic.Diag.line;
  match Minic.Parser.parse ~module_name:"m" ~file:"m.mc" src with
  | exception Lexer.Lex_error d ->
    check_string "same diagnostic" (Minic.Diag.to_string lex_error)
      (Minic.Diag.to_string d)
  | exception Minic.Parser.Parse_error d ->
    Alcotest.fail ("parse error won: " ^ Minic.Diag.to_string d)
  | _ -> Alcotest.fail "parser accepted a parse error"

let test_parser_global_inits () =
  let src = {|
    global a = 5;
    global arr[3] = {1, -2, 3};
    public global b;
    func main() { print_int(a + arr[1] + b); return 0; }
  |} in
  check_string "global initializers" "3\n" (run_src src)

(* ------------------------------------------------------------------ *)
(* Sema.                                                               *)

let test_sema_undefined () =
  check_bool "undefined var" true (errors_of "func f() { return nope; }" <> []);
  check_bool "undefined call" true (errors_of "func f() { return g(); }" <> []);
  check_bool "undefined assign" true (errors_of "func f() { x = 3; }" <> [])

let test_sema_duplicates () =
  check_bool "dup local" true
    (errors_of "func f() { var x = 1; var x = 2; }" <> []);
  check_bool "dup function" true
    (errors_of "func f() { } func f() { }" <> []);
  check_bool "dup params" true (errors_of "func f(a, a) { }" <> []);
  check_bool "shadow in nested scope ok" true
    (errors_of "func f() { var x = 1; if (x) { var x = 2; print_int(x); } }" = [])

let test_sema_break_continue () =
  check_bool "break outside loop" true (errors_of "func f() { break; }" <> []);
  check_bool "continue outside loop" true
    (errors_of "func f() { continue; }" <> []);
  check_bool "break in loop ok" true
    (errors_of "func f() { while (1) { break; } }" = [])

let test_sema_arity_is_warning () =
  let src = "func g(a, b) { return a; } func f() { return g(1); }" in
  check_bool "no errors" true (errors_of src = []);
  check_bool "one warning" true (List.length (warnings_of src) = 1)

let test_sema_assignment_targets () =
  check_bool "assign to function" true
    (errors_of "func g() { } func f() { g = 1; }" <> []);
  check_bool "assign to array" true
    (errors_of "global a[4]; func f() { a = 1; }" <> []);
  check_bool "assign to global scalar ok" true
    (errors_of "global a; func f() { a = 1; }" = [])

let test_sema_addr_of () =
  check_bool "addr of local" true
    (errors_of "func f() { var x = 1; var p = &x; }" <> []);
  check_bool "addr of global ok" true
    (errors_of "global g; func f() { var p = &g; }" = [])

let test_sema_cross_module () =
  let a = "static func hidden() { return 1; } func shared() { return 2; }" in
  let b = "func main() { return shared() + hidden(); }" in
  let diags =
    Minic.Sema.check_program
      [ Minic.Parser.parse ~module_name:"a" ~file:"a.mc" a;
        Minic.Parser.parse ~module_name:"b" ~file:"b.mc" b ]
  in
  (* [shared] resolves, [hidden] does not. *)
  check_int "one error (hidden)" 1
    (List.length (List.filter Minic.Diag.is_error diags))

(* ------------------------------------------------------------------ *)
(* Lowered semantics (via the interpreter).                            *)

let test_semantics_arith () =
  check_string "arith" "17\n"
    (run_src "func main() { print_int(3 + 4 * 5 - 6 / 2 - 8 % 5); return 0; }");
  check_string "negative division truncates" "-2\n"
    (run_src "func main() { print_int((0 - 5) / 2); return 0; }");
  check_string "unary" "-7\n1\n0\n"
    (run_src
       "func main() { print_int(-7); print_int(!0); print_int(!42); return 0; }")

let test_semantics_short_circuit () =
  (* The right operand must not run when the left decides. *)
  let src = {|
    global trace;
    func effect(v) { trace = trace * 10 + v; return v; }
    func main() {
      trace = 0;
      var a = effect(0) && effect(1);
      var b = effect(1) || effect(2);
      print_int(a);
      print_int(b);
      print_int(trace);
      return 0;
    }
  |} in
  (* effect(0) runs, && short-circuits; effect(1) runs, || short-circuits:
     trace = 01 *)
  check_string "short circuit" "0\n1\n1\n" (run_src src)

let test_semantics_loops () =
  let src = {|
    func main() {
      var s = 0;
      for (var i = 0; i < 10; i = i + 1) {
        if (i == 3) { continue; }
        if (i == 8) { break; }
        s = s + i;
      }
      var j = 0;
      while (1) {
        j = j + 1;
        if (j >= 5) { break; }
      }
      print_int(s);
      print_int(j);
      return 0;
    }
  |} in
  (* 0+1+2+4+5+6+7 = 25 *)
  check_string "loops" "25\n5\n" (run_src src)

let test_semantics_recursion () =
  let src = {|
    func ack(m, n) {
      if (m == 0) { return n + 1; }
      if (n == 0) { return ack(m - 1, 1); }
      return ack(m - 1, ack(m, n - 1));
    }
    func main() { print_int(ack(2, 3)); return 0; }
  |} in
  check_string "ackermann" "9\n" (run_src src)

let test_semantics_function_values () =
  let src = {|
    func inc(x) { return x + 1; }
    func dbl(x) { return x * 2; }
    func compose_apply(f, g, x) { return f(g(x)); }
    global slot;
    func main() {
      print_int(compose_apply(&inc, &dbl, 5));
      slot = inc;
      print_int(slot(9));
      var h = dbl;
      print_int(h(21));
      return 0;
    }
  |} in
  check_string "function values" "11\n10\n42\n" (run_src src)

let test_semantics_arity_mismatch_call () =
  (* Extra args dropped, missing args read as 0 (dusty-deck C). *)
  let src = {|
    func g(a, b) { return a * 100 + b; }
    func main() {
      print_int(g(7));
      print_int(g(1, 2, 3));
      return 0;
    }
  |} in
  check_string "arity mismatch semantics" "700\n102\n" (run_src src)

let test_semantics_pointers_via_alloc () =
  let src = {|
    func main() {
      var p = alloc(4);
      p[0] = 10;
      p[3] = 40;
      var q = alloc(2);
      q[0] = p[0] + p[3];
      print_int(q[0]);
      return 0;
    }
  |} in
  check_string "alloc pointers" "50\n" (run_src src)

let test_semantics_traps () =
  ignore (run_src ~expect_trap:true "func main() { return 1 / 0; }");
  ignore (run_src ~expect_trap:true "func main() { return 1 % 0; }");
  ignore
    (run_src ~expect_trap:true "global a[2]; func main() { return a[5000000]; }");
  ignore (run_src ~expect_trap:true "func main() { abort(); return 0; }");
  ignore
    (run_src ~expect_trap:true
       "func loop() { return loop(); } func main() { return loop(); }")

let test_semantics_fallthrough_returns_zero () =
  check_string "implicit return 0" "0\n"
    (run_src "func f() { } func main() { print_int(f()); return 0; }")

let test_for_loop_variants () =
  let src = {|
    func main() {
      var s = 0;
      var i = 0;
      for (; i < 5; i = i + 1) { s = s + i; }
      for (var j = 0; ; j = j + 1) { if (j >= 3) { break; } s = s + 100; }
      for (var k = 0; k < 3;) { k = k + 1; s = s + 1000; }
      print_int(s);
      return 0;
    }
  |} in
  (* 10 + 300 + 3000 *)
  check_string "for variants" "3310
" (run_src src)

let test_empty_bodies_and_comments () =
  let src = {|
    // leading comment
    func nop() { }
    /* block */ func main() { nop(); /* inline */ print_int(1); return 0; } // eof comment|}
  in
  check_string "empty body + comments" "1
" (run_src src)

let test_hex_and_char_arithmetic () =
  check_string "hex/char" "74\n"
    (run_src "func main() { print_int(0x10 + 'A' - 'a' + 'Z'); return 0; }")

let test_deep_nesting () =
  let src = {|
    func main() {
      var s = 0;
      for (var a = 0; a < 2; a = a + 1) {
        for (var b = 0; b < 2; b = b + 1) {
          if (a == b) {
            while (s < 100) {
              s = s + 1;
              if (s == 5) { break; }
            }
          } else {
            s = s + 10;
          }
        }
      }
      print_int(s);
      return 0;
    }
  |} in
  (* a=0,b=0: s 0->5 (break at 5); a=0,b=1: +10 = 15; a=1,b=0: +10 = 25;
     a=1,b=1: while to 100 *)
  check_string "deep nesting" "100
" (run_src src)

let test_attrs_reach_ir () =
  let src = {|
    noinline varargs func weird(x) { return x; }
    alloca fprelaxed noclone func odd() { return 1; }
    func main() { return weird(1) + odd(); }
  |} in
  let p = Minic.Compile.compile_string src in
  let weird = Ucode.Types.find_routine_exn p "weird" in
  let odd = Ucode.Types.find_routine_exn p "odd" in
  check_bool "noinline" true weird.Ucode.Types.r_attrs.Ucode.Types.a_no_inline;
  check_bool "varargs" true weird.Ucode.Types.r_attrs.Ucode.Types.a_varargs;
  check_bool "alloca" true odd.Ucode.Types.r_attrs.Ucode.Types.a_alloca;
  check_bool "noclone" true odd.Ucode.Types.r_attrs.Ucode.Types.a_no_clone;
  check_bool "fp model" true
    (odd.Ucode.Types.r_attrs.Ucode.Types.a_fp_model = Ucode.Types.Relaxed)

(* ------------------------------------------------------------------ *)
(* qcheck: the streamed parse reports the errors of a lex-first parse.  *)

let workload_texts =
  lazy
    (Array.of_list
       (List.concat_map
          (fun b ->
            List.map
              (fun (s : Minic.Compile.source) -> s.Minic.Compile.src_text)
              (Workloads.Suite.sources b ~input:Workloads.Suite.Train))
          Workloads.Suite.all))

(* Byte mutations of the workload sources.  The replacement bytes are
   picked to open comments and character literals, to be characters no
   token starts with, or to break the grammar, so that lexical and
   parse errors both come up and, with two or three mutations, often
   one before the other. *)
let source_byte =
  let open QCheck.Gen in
  oneof
    [ oneofl [ '@'; '#'; '$'; '"'; '\''; '\\'; '/'; '*'; '\000'; '\255' ];
      oneofl [ ';'; '('; ')'; '{'; '}'; '='; ','; '0'; 'x'; ' '; '\n' ];
      char ]

(* Outcomes of the property, for the vacuity check below. *)
let lex_errors = ref 0
let parse_errors = ref 0
let parsed = ref 0

let prop_streamed_errors =
  QCheck.Test.make ~count:2000
    ~name:"mutated sources: parse raises the lex-first error"
    (Byte_mutation.arbitrary ~byte:source_byte)
    (fun (k, mutations) ->
      let texts = Lazy.force workload_texts in
      let src =
        List.fold_left Byte_mutation.apply
          texts.(k mod Array.length texts)
          mutations
      in
      let parse () = Minic.Parser.parse ~module_name:"m" ~file:"m.mc" src in
      let unexpected what e =
        QCheck.Test.fail_reportf "%s, but parse raised %s" what
          (Printexc.to_string e)
      in
      match Lexer.tokenize ~file:"m.mc" src with
      | exception Lexer.Lex_error d -> (
        incr lex_errors;
        match parse () with
        | exception Lexer.Lex_error d' when d' = d -> true
        | exception e ->
          unexpected ("tokenize raised " ^ Minic.Diag.to_string d) e
        | _ ->
          QCheck.Test.fail_reportf "tokenize raised %s, but parse returned"
            (Minic.Diag.to_string d))
      | _ -> (
        match parse () with
        | _ ->
          incr parsed;
          true
        | exception Minic.Parser.Parse_error _ ->
          incr parse_errors;
          true
        | exception e -> unexpected "tokenize returned" e))

(* The mutations reach all three outcomes. *)
let test_streamed_errors_not_vacuous () =
  check_bool "some lex errors" true (!lex_errors > 0);
  check_bool "some parse errors" true (!parse_errors > 0);
  check_bool "some parsed" true (!parsed > 0)

let () =
  Alcotest.run "minic"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions ] );
      ( "parser",
        [ Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "associativity" `Quick test_parser_associativity;
          Alcotest.test_case "else-if" `Quick test_parser_else_if;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "lex error wins" `Quick test_parser_lex_error_wins;
          Alcotest.test_case "global inits" `Quick test_parser_global_inits ] );
      ( "streamed errors",
        [ QCheck_alcotest.to_alcotest prop_streamed_errors;
          Alcotest.test_case "not vacuous" `Quick
            test_streamed_errors_not_vacuous ] );
      ( "sema",
        [ Alcotest.test_case "undefined" `Quick test_sema_undefined;
          Alcotest.test_case "duplicates" `Quick test_sema_duplicates;
          Alcotest.test_case "break/continue" `Quick test_sema_break_continue;
          Alcotest.test_case "arity warning" `Quick test_sema_arity_is_warning;
          Alcotest.test_case "assignment targets" `Quick
            test_sema_assignment_targets;
          Alcotest.test_case "addr-of" `Quick test_sema_addr_of;
          Alcotest.test_case "cross-module" `Quick test_sema_cross_module ] );
      ( "semantics",
        [ Alcotest.test_case "arithmetic" `Quick test_semantics_arith;
          Alcotest.test_case "short-circuit" `Quick test_semantics_short_circuit;
          Alcotest.test_case "loops" `Quick test_semantics_loops;
          Alcotest.test_case "recursion" `Quick test_semantics_recursion;
          Alcotest.test_case "function values" `Quick
            test_semantics_function_values;
          Alcotest.test_case "arity mismatch" `Quick
            test_semantics_arity_mismatch_call;
          Alcotest.test_case "alloc pointers" `Quick
            test_semantics_pointers_via_alloc;
          Alcotest.test_case "traps" `Quick test_semantics_traps;
          Alcotest.test_case "implicit return" `Quick
            test_semantics_fallthrough_returns_zero;
          Alcotest.test_case "attributes" `Quick test_attrs_reach_ir;
          Alcotest.test_case "for variants" `Quick test_for_loop_variants;
          Alcotest.test_case "empty bodies" `Quick test_empty_bodies_and_comments;
          Alcotest.test_case "hex and chars" `Quick test_hex_and_char_arithmetic;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting ] ) ]
