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

let trivial_program ?source_lines ?functions code =
  Program.make ?source_lines ?functions (Array.of_list code)

(* [Program.make] is the only constructor: an invalid program never
   exists. *)
let rejected ?entry ?globals_words ?init_data ?sites ?user_branches code =
  match
    Program.make ?entry ?globals_words ?init_data ?sites ?user_branches
      (Array.of_list code)
  with
  | exception Program.Invalid_program _ -> true
  | _ -> false

let test_validate_ok () =
  ignore (trivial_program [ Insn.Li (1, 5); Insn.Halt ])

let test_validate_bad_target () =
  Alcotest.(check bool) "raises" true (rejected [ Insn.Jmp 99 ])

let test_validate_nested_pred () =
  Alcotest.(check bool) "nested pred rejected" true
    (rejected [ Insn.Pred (Insn.Pred Insn.Nop); Insn.Halt ])

let test_validate_bad_init () =
  Alcotest.(check bool) "init in null page rejected" true
    (rejected ~init_data:[ (0, 1) ] [ Insn.Halt ])

(* Every check [Program.make] makes, one invalid program each. *)
let test_make_rejects () =
  let site id = { Site.id; line = 1; kind = Site.Assertion; descr = "" } in
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) (what ^ " rejected") true (Lazy.force bad))
    [
      ("empty code", lazy (rejected []));
      ("entry out of range", lazy (rejected ~entry:1 [ Insn.Halt ]));
      ("negative target", lazy (rejected [ Insn.Br (Insn.Eq, 0, 0, -1) ]));
      ("call past the end", lazy (rejected [ Insn.Call 1 ]));
      ("bad register", lazy (rejected [ Insn.Li (32, 0); Insn.Halt ]));
      ( "bad predicated register",
        lazy (rejected [ Insn.Pred (Insn.Push (-1)); Insn.Halt ]) );
      ( "nested predication",
        lazy (rejected [ Insn.Pred (Insn.Pred Insn.Nop) ]) );
      ( "user branch that is a jump",
        lazy (rejected ~user_branches:[ 0 ] [ Insn.Jmp 0 ]) );
      ( "user branch out of range",
        lazy (rejected ~user_branches:[ 1 ] [ Insn.Halt ]) );
      ("misnumbered site", lazy (rejected ~sites:[| site 1 |] [ Insn.Halt ]));
      ( "init data in the null page",
        lazy (rejected ~init_data:[ (0, 1) ] [ Insn.Halt ]) );
      ( "init data past the globals",
        lazy
          (rejected ~globals_words:2
             ~init_data:[ (Program.null_guard_words + 2, 1) ]
             [ Insn.Halt ]) );
      ("negative globals", lazy (rejected ~globals_words:(-1) [ Insn.Halt ]));
    ]

let test_line_of_pc () =
  let program =
    trivial_program ~source_lines:[ (0, 10); (2, 20) ]
      [ Insn.Nop; Insn.Nop; Insn.Nop; Insn.Halt ]
  in
  Alcotest.(check int) "first" 10 (Program.line_of_pc program 0);
  Alcotest.(check int) "middle" 10 (Program.line_of_pc program 1);
  Alcotest.(check int) "after second" 20 (Program.line_of_pc program 3)

let test_function_of_pc () =
  let program =
    trivial_program ~functions:[ ("start", 0); ("main", 1) ]
      [ Insn.Nop; Insn.Nop; Insn.Halt ]
  in
  Alcotest.(check (option string)) "start" (Some "start")
    (Program.function_of_pc program 0);
  Alcotest.(check (option string)) "main" (Some "main")
    (Program.function_of_pc program 2)

(* --- the packed image ---------------------------------------------------- *)

(* Immediates at the edges of a word's field, whose direct range is
   [[-2^39, 2^40)] (program.mli): each side of both pool boundaries, the
   extremes of [int], and small values of either sign. *)
let edge_imms =
  [ min_int; max_int; -(1 lsl 39); -(1 lsl 39) - 1; (1 lsl 40) - 1; 1 lsl 40;
    0; 1; -1; -8 ]

(* Any instruction whose control target is below [n]: every kind and
   operator, all 32 registers, immediates of any width or sign, every
   syscall, and predicated forms of all of them. *)
let insn_gen n =
  let open QCheck.Gen in
  let reg = int_range 0 (Reg.count - 1) in
  let imm =
    frequency
      [ (3, oneofl edge_imms); (3, int_range (-100) 100); (2, int); (1, nat) ]
  in
  let target = int_range 0 (n - 1) in
  let binop =
    oneofl
      Insn.[ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr ]
  in
  let cmp = oneofl Insn.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let plain =
    oneof
      [
        map (fun (((op, a), b), c) -> Insn.Binop (op, a, b, c))
          (pair (pair (pair binop reg) reg) reg);
        map (fun (((op, a), b), i) -> Insn.Binopi (op, a, b, i))
          (pair (pair (pair binop reg) reg) imm);
        map (fun (((c, a), b), d) -> Insn.Cmp (c, a, b, d))
          (pair (pair (pair cmp reg) reg) reg);
        map (fun (((c, a), b), i) -> Insn.Cmpi (c, a, b, i))
          (pair (pair (pair cmp reg) reg) imm);
        map (fun (a, i) -> Insn.Li (a, i)) (pair reg imm);
        map (fun (a, b) -> Insn.Mov (a, b)) (pair reg reg);
        map (fun ((a, b), i) -> Insn.Load (a, b, i)) (pair (pair reg reg) imm);
        map (fun ((a, b), i) -> Insn.Store (a, b, i)) (pair (pair reg reg) imm);
        map (fun (((c, a), b), t) -> Insn.Br (c, a, b, t))
          (pair (pair (pair cmp reg) reg) target);
        map (fun t -> Insn.Jmp t) target;
        map (fun t -> Insn.Call t) target;
        return Insn.Ret;
        map (fun a -> Insn.Push a) reg;
        map (fun a -> Insn.Pop a) reg;
        map (fun s -> Insn.Syscall s)
          (oneofl Insn.[ Sys_putc; Sys_getc; Sys_print_int; Sys_exit ]);
        map (fun (a, i) -> Insn.Checkz (a, i)) (pair reg imm);
        map (fun ((a, b), i) -> Insn.Watch (a, b, i)) (pair (pair reg reg) imm);
        map (fun (a, b) -> Insn.Unwatch (a, b)) (pair reg reg);
        return Insn.Clearpred;
        return Insn.Halt;
        return Insn.Nop;
      ]
  in
  frequency [ (3, plain); (1, map (fun i -> Insn.Pred i) plain) ]

let code_gen =
  QCheck.Gen.(
    int_range 1 40 >>= fun n -> map Array.of_list (list_repeat n (insn_gen n)))

let prop_pack_roundtrip =
  QCheck.Test.make ~name:"packed image round trip" ~count:500
    (QCheck.make
       ~print:(fun code ->
         String.concat "\n" (Array.to_list (Array.map Insn.to_string code)))
       code_gen)
    (fun code ->
      let p = Program.make code in
      Program.length p = Array.length code
      && Array.for_all Fun.id
           (Array.mapi (fun pc insn -> Program.insn p pc = insn) code))

(* Every edge immediate in every immediate-carrying form, plain and
   predicated, on one image: the pool is shared by the whole program. *)
let test_pack_edges () =
  let forms i =
    Insn.
      [ Binopi (Add, 1, 2, i); Cmpi (Lt, 3, 4, i); Li (31, i); Load (5, 29, i);
        Store (6, 30, i); Checkz (7, i); Watch (8, 9, i) ]
  in
  let code =
    Array.of_list
      (List.concat_map
         (fun i -> forms i @ List.map (fun f -> Insn.Pred f) (forms i))
         edge_imms)
  in
  let p = Program.make code in
  Array.iteri
    (fun pc insn ->
      if Program.insn p pc <> insn then
        Alcotest.failf "pc %d: packed %s, read back %s" pc
          (Insn.to_string insn)
          (Insn.to_string (Program.insn p pc)))
    code;
  Alcotest.(check bool) "the wide ones are pooled" true
    (Array.length p.Program.pool > 0)

(* A compiled program's footprint: one code word per instruction, two
   per source-line entry. The print_tokens image with assertions, fixing
   on, at -O0 (2,389 instructions) reached 14,043 words when each
   instruction was a boxed [Insn.t] block (9,909 of them code) and each
   source-line entry a tuple; packed it is 5,862. The bound is that plus
   5%. *)
let test_footprint () =
  let w = Registry.print_tokens in
  let program =
    (Compile.compile
       ~options:{ Codegen.detector = Codegen.Assertions; fixing = true }
       ~level:Opt.O0 (w.Workload.source ~bug:None))
      .Compile.program
  in
  let words = Obj.reachable_words (Obj.repr program) in
  if words > 6155 then
    Alcotest.failf "print_tokens -O0 image: %d reachable words (bound 6155)"
      words

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
    Alcotest.test_case "make rejects invalid programs" `Quick test_make_rejects;
    Alcotest.test_case "line of pc" `Quick test_line_of_pc;
    Alcotest.test_case "function of pc" `Quick test_function_of_pc;
    Alcotest.test_case "disassemble" `Quick test_disassemble;
    Alcotest.test_case "site to_string" `Quick test_site_to_string;
    QCheck_alcotest.to_alcotest prop_pack_roundtrip;
    Alcotest.test_case "packed image edge immediates" `Quick test_pack_edges;
    Alcotest.test_case "packed image footprint" `Quick test_footprint;
  ]
