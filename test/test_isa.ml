(* Unit tests for the ISA: registers, instruction semantics helpers, program
   validation and disassembly. *)

let test_reg_names () =
  Alcotest.(check string) "zero" "zero" (Reg.name Reg.zero);
  Alcotest.(check string) "rv" "rv" (Reg.name Reg.rv);
  Alcotest.(check string) "a0" "a0" (Reg.name (Reg.arg 0));
  Alcotest.(check string) "a7" "a7" (Reg.name (Reg.arg 7));
  Alcotest.(check string) "t0" "t0" (Reg.name (Reg.tmp 0));
  Alcotest.(check string) "sp" "sp" (Reg.name Reg.sp);
  Alcotest.(check string) "fp" "fp" (Reg.name Reg.fp);
  Alcotest.(check string) "ra" "ra" (Reg.name Reg.ra)

let test_reg_ranges () =
  Alcotest.check_raises "arg 8" (Invalid_argument "Reg.arg: argument registers are a0..a7")
    (fun () -> ignore (Reg.arg 8));
  Alcotest.check_raises "tmp 18" (Invalid_argument "Reg.tmp: temporaries are t0..t17")
    (fun () -> ignore (Reg.tmp 18));
  Alcotest.(check bool) "valid" true (Reg.is_valid 31);
  Alcotest.(check bool) "invalid" false (Reg.is_valid 32)

let test_eval_binop () =
  let check op a b expected =
    Alcotest.(check (option int))
      (Insn.binop_name op) expected (Insn.eval_binop op a b)
  in
  check Insn.Add 2 3 (Some 5);
  check Insn.Sub 2 3 (Some (-1));
  check Insn.Mul 4 3 (Some 12);
  check Insn.Div 7 2 (Some 3);
  check Insn.Div (-7) 2 (Some (-3));
  check Insn.Div 1 0 None;
  check Insn.Mod 7 3 (Some 1);
  check Insn.Mod 5 0 None;
  check Insn.And 12 10 (Some 8);
  check Insn.Or 12 10 (Some 14);
  check Insn.Xor 12 10 (Some 6);
  check Insn.Shl 1 4 (Some 16);
  check Insn.Shr 16 4 (Some 1);
  check Insn.Shr (-16) 2 (Some (-4))

let test_eval_cmp () =
  Alcotest.(check bool) "eq" true (Insn.eval_cmp Insn.Eq 3 3);
  Alcotest.(check bool) "ne" true (Insn.eval_cmp Insn.Ne 3 4);
  Alcotest.(check bool) "lt" true (Insn.eval_cmp Insn.Lt 3 4);
  Alcotest.(check bool) "le" true (Insn.eval_cmp Insn.Le 4 4);
  Alcotest.(check bool) "gt" false (Insn.eval_cmp Insn.Gt 4 4);
  Alcotest.(check bool) "ge" true (Insn.eval_cmp Insn.Ge 4 4)

let test_negate_cmp () =
  List.iter
    (fun cmp ->
      let neg = Insn.negate_cmp cmp in
      for a = -2 to 2 do
        for b = -2 to 2 do
          Alcotest.(check bool)
            (Printf.sprintf "negation is complement (%d, %d)" a b)
            (not (Insn.eval_cmp cmp a b))
            (Insn.eval_cmp neg a b)
        done
      done)
    [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ]

let test_insn_to_string () =
  Alcotest.(check bool) "add string" true
    (String.length (Insn.to_string (Insn.Binop (Insn.Add, 1, 2, 3))) > 0);
  let pred = Insn.Pred (Insn.Li (Reg.tmp 0, 5)) in
  let s = Insn.to_string pred in
  Alcotest.(check bool) "pred prefix" true
    (String.length s > 3 && String.sub s 0 3 = "<p>")

let test_is_branch_memory () =
  Alcotest.(check bool) "br" true (Insn.is_branch (Insn.Br (Insn.Eq, 0, 0, 0)));
  Alcotest.(check bool) "jmp is not a conditional branch" false
    (Insn.is_branch (Insn.Jmp 0));
  Alcotest.(check bool) "load" true (Insn.is_memory_access (Insn.Load (1, 2, 0)));
  Alcotest.(check bool) "pred store" true
    (Insn.is_memory_access (Insn.Pred (Insn.Store (1, 2, 0))));
  Alcotest.(check bool) "li" false (Insn.is_memory_access (Insn.Li (1, 0)))

let trivial_program code =
  {
    Program.code = Array.of_list code;
    entry = 0;
    globals_words = 0;
    init_data = [];
    sites = [||];
    user_branches = [];
    functions = [];
    user_code_ranges = [];
    fix_atoms = [];
    global_vars = [];
    blank_addrs = [];
    source_lines = [||];
  }

let test_validate_ok () =
  Program.validate (trivial_program [ Insn.Li (1, 5); Insn.Halt ])

let test_validate_bad_target () =
  let program = trivial_program [ Insn.Jmp 99 ] in
  Alcotest.(check bool) "raises" true
    (try
       Program.validate program;
       false
     with Program.Invalid_program _ -> true)

let test_validate_nested_pred () =
  let program = trivial_program [ Insn.Pred (Insn.Pred Insn.Nop); Insn.Halt ] in
  Alcotest.(check bool) "nested pred rejected" true
    (try
       Program.validate program;
       false
     with Program.Invalid_program _ -> true)

let test_validate_bad_init () =
  let program =
    { (trivial_program [ Insn.Halt ]) with Program.init_data = [ (0, 1) ] }
  in
  Alcotest.(check bool) "init in null page rejected" true
    (try
       Program.validate program;
       false
     with Program.Invalid_program _ -> true)

(* [Machine.create] validates a program value once: a repeated create of
   the same value reuses its load (the same decoded image), but a value
   that never passed validation still raises at create, even one sharing
   the last valid program's code array. *)
let test_create_validates_once () =
  let good = trivial_program [ Insn.Li (1, 5); Insn.Halt ] in
  let m1 = Machine.create good in
  let m2 = Machine.create good in
  Alcotest.(check bool) "repeat create reuses the load" true
    (m1.Machine.dcode == m2.Machine.dcode);
  let bad = { good with Program.init_data = [ (0, 1) ] } in
  Alcotest.(check bool) "never-validated value raises at create" true
    (try
       ignore (Machine.create bad);
       false
     with Program.Invalid_program _ -> true);
  Alcotest.(check bool) "a fresh invalid program raises at create" true
    (try
       ignore (Machine.create (trivial_program [ Insn.Jmp 99 ]));
       false
     with Program.Invalid_program _ -> true);
  (* a rejected program leaves the memo usable *)
  ignore (Machine.create good)

let test_line_of_pc () =
  let program =
    {
      (trivial_program [ Insn.Nop; Insn.Nop; Insn.Nop; Insn.Halt ]) with
      Program.source_lines = [| (0, 10); (2, 20) |];
    }
  in
  Alcotest.(check int) "first" 10 (Program.line_of_pc program 0);
  Alcotest.(check int) "middle" 10 (Program.line_of_pc program 1);
  Alcotest.(check int) "after second" 20 (Program.line_of_pc program 3)

let test_function_of_pc () =
  let program =
    {
      (trivial_program [ Insn.Nop; Insn.Nop; Insn.Halt ]) with
      Program.functions = [ ("start", 0); ("main", 1) ];
    }
  in
  Alcotest.(check (option string)) "start" (Some "start")
    (Program.function_of_pc program 0);
  Alcotest.(check (option string)) "main" (Some "main")
    (Program.function_of_pc program 2)

let test_disassemble () =
  let program = trivial_program [ Insn.Li (1, 7); Insn.Halt ] in
  let text = Program.disassemble program in
  Alcotest.(check bool) "mentions li" true
    (String.length text > 0
    &&
    let re_found = ref false in
    String.iteri
      (fun i _ ->
        if i + 2 <= String.length text && String.sub text i 2 = "li" then
          re_found := true)
      text;
    !re_found)

let test_site_to_string () =
  let site =
    { Site.id = 3; line = 42; kind = Site.Bounds_check; descr = "x" }
  in
  let s = Site.to_string site in
  Alcotest.(check bool) "mentions id and line" true
    (String.length s > 0 && Site.kind_name Site.Bounds_check = "bounds");
  ignore s

let tests =
  [
    Alcotest.test_case "register names" `Quick test_reg_names;
    Alcotest.test_case "register ranges" `Quick test_reg_ranges;
    Alcotest.test_case "eval binop" `Quick test_eval_binop;
    Alcotest.test_case "eval cmp" `Quick test_eval_cmp;
    Alcotest.test_case "negate cmp" `Quick test_negate_cmp;
    Alcotest.test_case "insn to_string" `Quick test_insn_to_string;
    Alcotest.test_case "branch/memory predicates" `Quick test_is_branch_memory;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate bad target" `Quick test_validate_bad_target;
    Alcotest.test_case "validate nested pred" `Quick test_validate_nested_pred;
    Alcotest.test_case "validate bad init" `Quick test_validate_bad_init;
    Alcotest.test_case "machine create validates once" `Quick
      test_create_validates_once;
    Alcotest.test_case "line of pc" `Quick test_line_of_pc;
    Alcotest.test_case "function of pc" `Quick test_function_of_pc;
    Alcotest.test_case "disassemble" `Quick test_disassemble;
    Alcotest.test_case "site to_string" `Quick test_site_to_string;
  ]
