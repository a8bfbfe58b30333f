(* Assembler tests: parse/print round trips (unit and property), listing
   assembly, and executing an assembled program. *)

let roundtrip insn =
  Alcotest.(check string)
    (Insn.to_string insn)
    (Insn.to_string insn)
    (Insn.to_string (Asm.parse_insn (Insn.to_string insn)))

let test_roundtrip_each_form () =
  List.iter roundtrip
    [
      Insn.Binop (Insn.Add, Reg.tmp 0, Reg.tmp 1, Reg.tmp 2);
      Insn.Binopi (Insn.Shr, Reg.tmp 3, Reg.sp, -4);
      Insn.Cmp (Insn.Le, Reg.rv, Reg.arg 0, Reg.fp);
      Insn.Cmpi (Insn.Ne, Reg.tmp 17, Reg.zero, 99);
      Insn.Li (Reg.arg 7, -123456);
      Insn.Mov (Reg.ra, Reg.tmp 9);
      Insn.Load (Reg.tmp 0, Reg.fp, -3);
      Insn.Store (Reg.tmp 1, Reg.zero, 17);
      Insn.Br (Insn.Gt, Reg.tmp 2, Reg.zero, 42);
      Insn.Jmp 7;
      Insn.Call 3;
      Insn.Ret;
      Insn.Push Reg.fp;
      Insn.Pop Reg.fp;
      Insn.Syscall Insn.Sys_putc;
      Insn.Syscall Insn.Sys_getc;
      Insn.Syscall Insn.Sys_print_int;
      Insn.Syscall Insn.Sys_exit;
      Insn.Checkz (Reg.tmp 4, 12);
      Insn.Watch (Reg.tmp 5, Reg.tmp 6, 3);
      Insn.Unwatch (Reg.tmp 5, Reg.tmp 6);
      Insn.Pred (Insn.Li (Reg.tmp 17, 5));
      Insn.Pred (Insn.Store (Reg.tmp 17, Reg.fp, -2));
      Insn.Clearpred;
      Insn.Halt;
      Insn.Nop;
    ]

let insn_gen =
  let open QCheck.Gen in
  let reg = int_bound 31 in
  let cmp = oneofl [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ] in
  let binop =
    oneofl
      [
        Insn.Add; Insn.Sub; Insn.Mul; Insn.Div; Insn.Mod; Insn.And; Insn.Or;
        Insn.Xor; Insn.Shl; Insn.Shr;
      ]
  in
  oneof
    [
      map3 (fun op (a, b) c -> Insn.Binop (op, a, b, c)) binop (pair reg reg) reg;
      map3 (fun op (a, b) k -> Insn.Binopi (op, a, b, k)) binop (pair reg reg)
        small_signed_int;
      map3 (fun c (a, b) d -> Insn.Cmp (c, a, b, d)) cmp (pair reg reg) reg;
      map3 (fun c (a, b) k -> Insn.Cmpi (c, a, b, k)) cmp (pair reg reg)
        small_signed_int;
      map2 (fun r k -> Insn.Li (r, k)) reg small_signed_int;
      map3 (fun r b k -> Insn.Load (r, b, k)) reg reg small_signed_int;
      map3 (fun r b k -> Insn.Store (r, b, k)) reg reg small_signed_int;
      map3 (fun c (a, b) t -> Insn.Br (c, a, b, abs t)) cmp (pair reg reg)
        small_signed_int;
      map (fun t -> Insn.Jmp (abs t)) small_signed_int;
      map2 (fun r k -> Insn.Pred (Insn.Li (r, k))) reg small_signed_int;
      return Insn.Ret;
      return Insn.Halt;
    ]

let prop_roundtrip =
  QCheck.Test.make ~name:"assembler round trip" ~count:500
    (QCheck.make ~print:Insn.to_string insn_gen)
    (fun insn -> Asm.parse_insn (Insn.to_string insn) = insn)

let test_parse_listing () =
  let code =
    Asm.parse_program
      {|
# compute 6*7 and print it
main:
    0: li    a0, 6
    muli  a0, a0, 7       # scale
    sys   print_int
    halt
|}
  in
  Alcotest.(check int) "four instructions" 4 (Array.length code);
  let machine = Machine.create (Program.make code) in
  (match (Engine.run ~config:Pe_config.baseline machine).Engine.outcome with
   | `Halted -> ()
   | _ -> Alcotest.fail "assembled program did not halt");
  Alcotest.(check string) "prints 42" "42" (Machine.output machine)

let test_disassembly_is_assemblable () =
  (* the full disassembly of a compiled workload parses back verbatim *)
  let compiled = Workload.compile Registry.print_tokens in
  let text = Program.disassemble compiled.Compile.program in
  let code = Asm.parse_program text in
  let program = compiled.Compile.program in
  Alcotest.(check int) "same length" (Program.length program)
    (Array.length code);
  Array.iteri
    (fun i insn ->
      if insn <> Program.insn program i then
        Alcotest.failf "mismatch at %d: %s vs %s" i (Insn.to_string insn)
          (Insn.to_string (Program.insn program i)))
    code

let test_errors () =
  let expect text =
    match Asm.parse_insn text with
    | exception Asm.Error _ -> ()
    | _ -> Alcotest.failf "expected an error for %S" text
  in
  expect "frob  t0, t1";
  expect "li    q9, 5";
  expect "beq   t0, t1, 12";
  expect "add   t0, t1"

let tests =
  [
    Alcotest.test_case "round trip each form" `Quick test_roundtrip_each_form;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "parse listing and run" `Quick test_parse_listing;
    Alcotest.test_case "disassembly reassembles" `Quick test_disassembly_is_assemblable;
    Alcotest.test_case "errors" `Quick test_errors;
  ]
