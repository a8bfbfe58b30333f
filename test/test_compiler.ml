(* Compiler tests: lexer, parser, typechecker and end-to-end MiniC execution
   through the code generator and interpreter. *)

let exec ?(options = Codegen.default_options) ?(input = "") source =
  let compiled = Compile.compile ~options source in
  let machine = Machine.create ~input compiled.Compile.program in
  let result = Engine.run ~config:Pe_config.baseline machine in
  (match result.Engine.outcome with
   | `Halted | `Exited _ -> ()
   | `Faulted f -> Alcotest.failf "program faulted: %s" (Cpu.fault_to_string f)
   | `Fuel_exhausted -> Alcotest.fail "program ran out of fuel");
  Machine.output machine

let check_output ?options ?input name source expected =
  Alcotest.(check string) name expected (exec ?options ?input source)

(* --- lexer ---------------------------------------------------------------- *)

let test_lexer_tokens () =
  let lexed = Lexer.tokenize "int x = 42; // comment\nx == 'a';" in
  let kinds = Array.to_list lexed.Lexer.tokens in
  Alcotest.(check bool) "has int kw" true (List.mem Token.Kw_int kinds);
  Alcotest.(check bool) "has 42" true (List.mem (Token.Tok_int 42) kinds);
  Alcotest.(check bool) "has char lit" true
    (List.mem (Token.Tok_int (Char.code 'a')) kinds);
  Alcotest.(check bool) "has ==" true (List.mem Token.Eq_eq kinds)

let test_lexer_lines () =
  let lexed = Lexer.tokenize "a\nb\n\nc" in
  let lines =
    List.combine
      (Array.to_list lexed.Lexer.tokens)
      (Array.to_list lexed.Lexer.lines)
    |> List.filter_map (fun (tok, line) ->
        match tok with Token.Tok_ident _ -> Some line | _ -> None)
  in
  Alcotest.(check (list int)) "line numbers" [ 1; 2; 4 ] lines

let test_lexer_tags () =
  let lexed = Lexer.tokenize "int x; //@tag here\nint y;" in
  Alcotest.(check (list (pair string int))) "tag map" [ ("here", 1) ]
    lexed.Lexer.tags

let test_lexer_strings () =
  let lexed = Lexer.tokenize {|"a\nb\\"|} in
  (match lexed.Lexer.tokens.(0) with
   | Token.Tok_string s -> Alcotest.(check string) "escapes" "a\nb\\" s
   | _ -> Alcotest.fail "expected string token")

let test_lexer_errors () =
  let expect_error source =
    match Lexer.tokenize source with
    | exception Lexer.Error _ -> ()
    | _ -> Alcotest.failf "expected lex error on %S" source
  in
  expect_error "\"unterminated";
  expect_error "/* unterminated";
  expect_error "$"

(* --- parser --------------------------------------------------------------- *)

let parse source = fst (Parser.parse_string source)

let test_parser_precedence () =
  let globals = parse "int main() { return 1 + 2 * 3; }" in
  match globals with
  | [ Ast.Gfunc { Ast.fbody = [ { Ast.sdesc = Ast.Sreturn (Some e); _ } ]; _ } ] ->
    (match e.Ast.desc with
     | Ast.Binop (Ast.Add, { Ast.desc = Ast.Int_lit 1; _ }, rhs) ->
       (match rhs.Ast.desc with
        | Ast.Binop (Ast.Mul, _, _) -> ()
        | _ -> Alcotest.fail "expected mul on the right")
     | _ -> Alcotest.fail "expected add at top")
  | _ -> Alcotest.fail "unexpected parse shape"

let test_parser_errors () =
  let expect_error source =
    match Parser.parse_string source with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" source
  in
  expect_error "int main() { return 1 + ; }";
  (* the struct-definition lookahead runs past the end of the source *)
  expect_error "struct";
  expect_error "int main() { if }";
  expect_error "int f(int) { }";
  expect_error "int x = ;"

let test_parser_struct_and_pointers () =
  let globals =
    parse "struct s { int a; struct s *next; };\nstruct s *head;\nint main() { return 0; }"
  in
  Alcotest.(check int) "three globals" 3 (List.length globals)

(* --- typechecker ---------------------------------------------------------- *)

let expect_type_error name source =
  match Compile.compile source with
  | exception Compile.Error msg ->
    Alcotest.(check bool)
      (name ^ ": is a type error: " ^ msg)
      true
      (String.length msg > 0)
  | _ -> Alcotest.failf "%s: expected a compile error" name

let test_typecheck_errors () =
  expect_type_error "unbound var" "int main() { return nope; }";
  expect_type_error "unknown function" "int main() { return f(1); }";
  expect_type_error "arity" "int f(int a) { return a; } int main() { return f(); }";
  expect_type_error "no main" "int f() { return 1; }";
  expect_type_error "bad field" "struct s { int a; }; int main() { struct s v; return v.b; }";
  expect_type_error "deref int field access" "int main() { int x; return x->a; }";
  expect_type_error "aggregate assign"
    "struct s { int a; }; int main() { struct s x; struct s y; x = y; return 0; }";
  expect_type_error "assign to literal" "int main() { 3 = 4; return 0; }";
  expect_type_error "void return value" "void f() { return 3; } int main() { f(); return 0; }"

(* Hostile sources: an out-of-range literal or an allocation past
   [max_int] is a [Compile.Error] naming its line, never an escaped
   [Failure] or [Program.Invalid_program]. *)
let expect_compile_error name source expected =
  match Compile.compile source with
  | exception Compile.Error msg -> Alcotest.(check string) name expected msg
  | _ -> Alcotest.failf "%s: expected a compile error" name

let test_literal_out_of_range () =
  expect_compile_error "literal past max_int"
    "int main() {\n  return 99999999999999999999999;\n}"
    "lex error at line 2: integer literal 99999999999999999999999 out of \
     range";
  expect_compile_error "negated literal past max_int"
    "int main() {\n\n  return -9223372036854775808;\n}"
    "lex error at line 3: integer literal 9223372036854775808 out of range";
  match Compile.compile "int main() { return 4611686018427387903; }" with
  | _ -> ()
  | exception Compile.Error msg -> Alcotest.failf "max_int rejected: %s" msg

let test_allocation_overflow () =
  expect_compile_error "global allocation wraps"
    "int a[4611686018427387903];\nint b[4];\nint main() { return 0; }"
    "type error at line 1: global 'a' overflows the address space";
  expect_compile_error "array of structs wraps"
    "struct s { int a; int b; };\n\
     struct s v[3000000000000000000];\n\
     int main() { return 0; }"
    "type error at line 2: array of 3000000000000000000 elements overflows \
     the address space";
  expect_compile_error "local allocation wraps"
    "int main() {\n  int a[4611686018427387903];\n  return 0;\n}"
    "type error at line 2: local 'a' overflows the address space";
  expect_compile_error "struct layout wraps"
    "struct s { int a[4611686018427387903]; int b[4]; };\n\
     int main() { return 0; }"
    "type error at line 1: struct 's' overflows the address space";
  (* the user's globals fit; the string pool and blank buffers behind
     them do not *)
  expect_compile_error "string literal wraps"
    "int a[4611686018427387790];\n\
     int main() { print_str(\"a string longer than the words left\"); \
     return 0; }"
    "type error at line 2: string literal overflows the address space";
  expect_compile_error "blank buffers wrap"
    "int a[4611686018427387870];\nint main() { return 0; }"
    "type error at line 0: blank buffer overflows the address space"

(* Name lookup must not walk the enclosing blocks: with one table per
   block, each use of [x] below cost O(depth) and the whole check was
   quadratic (release build on a 2-vCPU VM: 8,000 deep took 0.73 s,
   20,000 about 4.6 s). Timed in CPU seconds, parse excluded. *)
let test_typecheck_deep_nesting () =
  let depth = 20_000 in
  let source =
    "int main() { int x = 1;\n"
    ^ String.concat "" (List.init depth (fun _ -> "if (x) {\n"))
    ^ "x = 2;\n"
    ^ String.make depth '}'
    ^ "\nreturn x; }"
  in
  let user, tags = Parser.parse_string source in
  let t0 = Sys.time () in
  ignore (Typecheck.check ~user ~prelude:[] ~tags);
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d-deep if typechecks in %.3f s" depth dt)
    true (dt < 1.0)

(* -O1/-O2 must stay linear in the number of functions: a per-function
   table of every global name (uniquify) or a per-function list lookup of
   temp high-water marks (regalloc) makes this input take seconds. Each of
   the [n] functions reads its own global; [main] calls them all. Timed in
   CPU seconds. *)
let test_many_functions_o2 () =
  let n = 4_000 in
  let b = Buffer.create (n * 64) in
  for i = 0 to n - 1 do
    Printf.bprintf b "int g%d;\n" i
  done;
  for i = 0 to n - 1 do
    Printf.bprintf b "int f%d() { int x; x = g%d; return x; }\n" i i
  done;
  Buffer.add_string b "int main() {\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "  f%d();\n" i
  done;
  Buffer.add_string b "  return 0;\n}\n";
  let source = Buffer.contents b in
  let t0 = Sys.time () in
  ignore (Compile.compile ~level:Opt.O2 source);
  let dt = Sys.time () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d functions compile at -O2 in %.3f s" n dt)
    true (dt < 1.0)

(* Minor-heap words one compile of print_tokens allocates (Assertions,
   fixing on), measured in the test build as 82,942 at -O0 and 160,783 at
   -O2. The counter is deterministic, so the bounds sit 2% above: parsing
   the runtime prelude again (5.4K words) or a tuple per token would cross
   them. *)
let test_compile_allocation () =
  let source = Registry.print_tokens.Workload.source ~bug:None in
  let options = { Codegen.detector = Codegen.Assertions; fixing = true } in
  let words level =
    ignore (Compile.compile ~options ~level source);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Compile.compile ~options ~level source));
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (level, bound) ->
      let w = words level in
      Alcotest.(check bool)
        (Printf.sprintf "-%s compile allocates %.0f minor words (bound %.0f)"
           (Opt.to_string level) w bound)
        true (w <= bound))
    [ (Opt.O0, 84_600.); (Opt.O2, 164_000.) ]

(* --- lexer/parser robustness ---------------------------------------------- *)

(* Source text of one token, re-lexing to the same token. *)
let token_source = function
  | Token.Tok_string s ->
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | '\000' -> Buffer.add_string b "\\0"
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  | tok -> Token.to_string tok

(* Every registry source's tokens, [Eof] dropped. *)
let registry_tokens =
  List.map
    (fun (w : Workload.t) ->
      let toks = (Lexer.tokenize (w.Workload.source ~bug:None)).Lexer.tokens in
      (w.Workload.name, Array.sub toks 0 (Array.length toks - 1)))
    Registry.all

type token_edit = Drop of int | Dup of int | Swap of int

let apply_edit toks edit =
  let n = Array.length toks in
  if n = 0 then toks
  else
    match edit with
    | Drop i ->
      let i = i mod n in
      Array.append (Array.sub toks 0 i) (Array.sub toks (i + 1) (n - i - 1))
    | Dup i ->
      let i = i mod n in
      Array.concat
        [ Array.sub toks 0 (i + 1); [| toks.(i) |]; Array.sub toks (i + 1) (n - i - 1) ]
    | Swap i ->
      let i = i mod n in
      let j = (i + 1) mod n in
      let toks = Array.copy toks in
      let t = toks.(i) in
      toks.(i) <- toks.(j);
      toks.(j) <- t;
      toks

let edit_to_string = function
  | Drop i -> Printf.sprintf "drop %d" i
  | Dup i -> Printf.sprintf "dup %d" i
  | Swap i -> Printf.sprintf "swap %d" i

let mutant_gen =
  QCheck.Gen.(
    let edit =
      map2
        (fun k i -> match k with 0 -> Drop i | 1 -> Dup i | _ -> Swap i)
        (int_bound 2) (int_bound 1_000_000)
    in
    triple
      (int_bound (List.length registry_tokens - 1))
      (list_size (int_range 1 3) edit)
      (opt (int_bound 1_000_000)))

let mutant_to_string (app, edits, cut) =
  Printf.sprintf "%s: %s%s"
    (fst (List.nth registry_tokens app))
    (String.concat ", " (List.map edit_to_string edits))
    (match cut with Some c -> Printf.sprintf ", truncate at %d" c | None -> "")

let mutant_source (app, edits, cut) =
  let toks = List.fold_left apply_edit (snd (List.nth registry_tokens app)) edits in
  let toks =
    match cut with
    | Some c -> Array.sub toks 0 (c mod (Array.length toks + 1))
    | None -> toks
  in
  String.concat " " (Array.to_list (Array.map token_source toks))

(* Dropped, duplicated and swapped tokens and truncated sources may fail to
   compile, but only ever with [Compile.Error]. *)
let prop_token_mutants =
  QCheck.Test.make ~name:"token mutants fail only with Compile.Error" ~count:1000
    (QCheck.make ~print:mutant_to_string mutant_gen) (fun mutant ->
      let source = mutant_source mutant in
      List.for_all
        (fun level ->
          match Compile.compile ~level source with
          | _ | (exception Compile.Error _) -> true
          | exception e ->
            QCheck.Test.fail_reportf "-%s: %s escaped" (Opt.to_string level)
              (Printexc.to_string e))
        [ Opt.O0; Opt.O2 ])

(* --- end-to-end execution -------------------------------------------------- *)

let test_exec_arith () =
  check_output "arith"
    "int main() { print_int(2 + 3 * 4 - 10 / 2); return 0; }" "9";
  check_output "mod and neg"
    "int main() { print_int(-17 % 5); putc(' '); print_int(17 % -5); return 0; }"
    "-2 2";
  check_output "bitwise"
    "int main() { print_int((12 & 10) | (1 << 4) ^ 2); return 0; }" "26";
  check_output "comparison values"
    "int main() { print_int(3 < 4); print_int(4 <= 3); print_int(5 == 5); return 0; }"
    "101"

let test_exec_short_circuit () =
  check_output "and-or"
    {|
int calls = 0;
int bump() { calls = calls + 1; return 1; }
int main() {
  int r = 0 && bump();
  int s = 1 || bump();
  print_int(calls); print_int(r); print_int(s);
  return 0;
}
|}
    "001"

let test_exec_ternary () =
  check_output "ternary"
    "int main() { int x = 5; print_int(x > 3 ? 10 : 20); print_int(x > 9 ? 1 : 2); return 0; }"
    "102"

let test_exec_loops () =
  check_output "while"
    "int main() { int i = 0; int s = 0; while (i < 5) { s = s + i; i = i + 1; } print_int(s); return 0; }"
    "10";
  check_output "for with break/continue"
    {|
int main() {
  int s = 0;
  int i;
  for (i = 0; i < 10; i = i + 1) {
    if (i == 3) { continue; }
    if (i == 6) { break; }
    s = s + i;
  }
  print_int(s);
  return 0;
}
|}
    "12"

let test_exec_recursion () =
  check_output "fib"
    {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { print_int(fib(12)); return 0; }
|}
    "144"

let test_exec_mutual_recursion () =
  check_output "even/odd"
    {|
int is_even(int n) {
  if (n == 0) { return 1; }
  return is_odd(n - 1);
}
int is_odd(int n) {
  if (n == 0) { return 0; }
  return is_even(n - 1);
}
int main() { print_int(is_even(10)); print_int(is_odd(10)); return 0; }
|}
    "10"

let test_exec_arrays_pointers () =
  check_output "array sum via pointer"
    {|
int data[5] = {3, 1, 4, 1, 5};
int sum(int *p, int n) {
  int s = 0;
  int i;
  for (i = 0; i < n; i = i + 1) { s = s + p[i]; }
  return s;
}
int main() { print_int(sum(data, 5)); print_int(*data); print_int(data[4]); return 0; }
|}
    "1435";
  check_output "pointer arithmetic and diff"
    {|
int buf[8];
int main() {
  int *p = buf + 2;
  int *q = buf + 6;
  *p = 5;
  p[1] = 6;
  print_int(buf[2]); print_int(buf[3]); print_int(q - p);
  return 0;
}
|}
    "564";
  check_output "address-of"
    {|
int main() {
  int x = 7;
  int *p = &x;
  *p = *p + 1;
  print_int(x);
  return 0;
}
|}
    "8"

let test_exec_structs () =
  check_output "linked list"
    {|
struct node {
  int value;
  struct node *next;
};
int main() {
  struct node *head = NULL;
  int i;
  for (i = 1; i <= 4; i = i + 1) {
    struct node *n = malloc(sizeof(struct node));
    n->value = i * i;
    n->next = head;
    head = n;
  }
  int s = 0;
  while (head != NULL) {
    s = s + head->value;
    head = head->next;
  }
  print_int(s);
  return 0;
}
|}
    "30";
  check_output "struct fields and embedded arrays"
    {|
struct box {
  int tag;
  int data[3];
};
struct box b;
int main() {
  b.tag = 9;
  b.data[0] = 1;
  b.data[2] = 7;
  print_int(b.tag + b.data[0] + b.data[1] + b.data[2]);
  return 0;
}
|}
    "17"

let test_exec_globals_and_strings () =
  check_output "global init"
    {|
int counter = 10;
char msg[8] = "hey";
int tab[4] = {1, 2, 3, 4};
int main() {
  print_str(msg);
  print_int(counter + tab[3]);
  return 0;
}
|}
    "hey14";
  check_output "string literal" {|int main() { print_str("a b"); return 0; }|}
    "a b"

let test_exec_io () =
  check_output ~input:"xyz" "echo input"
    {|
int main() {
  int c = getc();
  while (c != -1) {
    putc(c);
    c = getc();
  }
  return 0;
}
|}
    "xyz"

let test_exec_runtime_lib () =
  check_output "string functions"
    {|
char buf[32];
int main() {
  strcpy(buf, "abc");
  strcat(buf, "def");
  print_int(strlen(buf));
  print_int(strcmp(buf, "abcdef"));
  print_int(strcmp("b", "a") > 0);
  print_int(atoi(" -42"));
  return 0;
}
|}
    "601-42";
  check_output "min/max/abs"
    "int main() { print_int(min_int(3, 5)); print_int(max_int(3, 5)); print_int(abs_int(-7)); return 0; }"
    "357"

let test_exec_malloc_free () =
  check_output "heap blocks are disjoint"
    {|
int main() {
  int *a = malloc(4);
  int *b = malloc(4);
  a[0] = 1;
  b[0] = 2;
  print_int(a[0]);
  print_int(b[0]);
  print_int(b - a >= 4);
  free(a);
  free(b);
  return 0;
}
|}
    "121"

let test_exec_exit () =
  let compiled =
    Compile.compile "int main() { exit(7); print_int(1); return 0; }"
  in
  let machine = Machine.create compiled.Compile.program in
  let result = Engine.run ~config:Pe_config.baseline machine in
  Alcotest.(check bool) "exit stops execution" true
    (result.Engine.outcome = `Exited 7);
  Alcotest.(check string) "nothing printed" "" (Machine.output machine)

(* --- compile-time structure ------------------------------------------------ *)

let test_user_branches_exclude_runtime () =
  let compiled =
    Compile.compile
      "int main() { if (strlen(\"ab\") > 1) { print_int(1); } return 0; }"
  in
  let program = compiled.Compile.program in
  (* strlen has branches, but only main's 'if' counts for user coverage *)
  Alcotest.(check int) "one user branch" 1
    (List.length program.Program.user_branches);
  Alcotest.(check bool) "image has more branches" true
    (List.length (Program.all_branches program) > 1)

let test_blank_structures_allocated () =
  let compiled =
    Compile.compile
      "struct s { int a; int b; }; int main() { struct s v; v.a = 1; return v.a; }"
  in
  let blanks = compiled.Compile.program.Program.blank_addrs in
  Alcotest.(check bool) "generic blank" true (List.mem_assoc "generic" blanks);
  Alcotest.(check bool) "struct blank" true (List.mem_assoc "s" blanks)

let test_detector_changes_sites () =
  let source = "int t[4]; int main() { t[1] = 2; return t[1]; }" in
  let plain = Compile.compile source in
  let ccured =
    Compile.compile ~options:{ Codegen.detector = Codegen.Ccured; fixing = true }
      source
  in
  Alcotest.(check int) "no sites without detector" 0
    (Array.length plain.Compile.program.Program.sites);
  Alcotest.(check bool) "ccured adds check sites" true
    (Array.length ccured.Compile.program.Program.sites > 0)

let test_fixing_changes_code () =
  let source = "int main() { int x = 1; if (x < 5) { x = 2; } return x; }" in
  let with_fix = Compile.compile source in
  let without_fix =
    Compile.compile
      ~options:{ Codegen.detector = Codegen.No_detector; fixing = false }
      source
  in
  Alcotest.(check bool) "fix stubs add instructions" true
    (Array.length with_fix.Compile.program.Program.code
    > Array.length without_fix.Compile.program.Program.code)

let test_tag_lines () =
  let compiled =
    Compile.compile "int main() { return 0; } //@tag main_line"
  in
  Alcotest.(check int) "tag resolves" 1 (Compile.tag_line compiled "main_line");
  Alcotest.check_raises "unknown tag" (Compile.Error "unknown source tag 'nope'")
    (fun () -> ignore (Compile.tag_line compiled "nope"))

let tests =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer line numbers" `Quick test_lexer_lines;
    Alcotest.test_case "lexer tags" `Quick test_lexer_tags;
    Alcotest.test_case "lexer strings" `Quick test_lexer_strings;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "parser structs" `Quick test_parser_struct_and_pointers;
    Alcotest.test_case "typecheck errors" `Quick test_typecheck_errors;
    Alcotest.test_case "literal out of range" `Quick test_literal_out_of_range;
    Alcotest.test_case "allocation overflow" `Quick test_allocation_overflow;
    Alcotest.test_case "typecheck deep nesting" `Quick test_typecheck_deep_nesting;
    Alcotest.test_case "many functions at -O2" `Quick test_many_functions_o2;
    Alcotest.test_case "compile allocation" `Quick test_compile_allocation;
    QCheck_alcotest.to_alcotest prop_token_mutants;
    Alcotest.test_case "exec arithmetic" `Quick test_exec_arith;
    Alcotest.test_case "exec short-circuit" `Quick test_exec_short_circuit;
    Alcotest.test_case "exec ternary" `Quick test_exec_ternary;
    Alcotest.test_case "exec loops" `Quick test_exec_loops;
    Alcotest.test_case "exec recursion" `Quick test_exec_recursion;
    Alcotest.test_case "exec mutual recursion" `Quick test_exec_mutual_recursion;
    Alcotest.test_case "exec arrays/pointers" `Quick test_exec_arrays_pointers;
    Alcotest.test_case "exec structs" `Quick test_exec_structs;
    Alcotest.test_case "exec globals/strings" `Quick test_exec_globals_and_strings;
    Alcotest.test_case "exec io" `Quick test_exec_io;
    Alcotest.test_case "exec runtime library" `Quick test_exec_runtime_lib;
    Alcotest.test_case "exec malloc/free" `Quick test_exec_malloc_free;
    Alcotest.test_case "exec exit" `Quick test_exec_exit;
    Alcotest.test_case "user branches" `Quick test_user_branches_exclude_runtime;
    Alcotest.test_case "blank structures" `Quick test_blank_structures_allocated;
    Alcotest.test_case "detector sites" `Quick test_detector_changes_sites;
    Alcotest.test_case "fixing code size" `Quick test_fixing_changes_code;
    Alcotest.test_case "tag lines" `Quick test_tag_lines;
  ]
