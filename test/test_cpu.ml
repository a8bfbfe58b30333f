(* Unit tests for the interpreter — the fast tier's body and the hooked
   step around it — on hand-assembled programs: arithmetic, control flow,
   calls, syscalls, faults, predication and sandboxed execution. *)

let build ?(globals = 4) ?sites code =
  Program.make ~globals_words:globals ?sites (Array.of_list code)

let run ?input code =
  let machine = Machine.create ?input (build code) in
  let result = Engine.run ~config:Pe_config.baseline machine in
  (machine, result)

(* Drive [ctx] from its pc to the end. [pinned] (default on) gives the
   drive the zero-budget tick, which returns the current retired count, so
   every instruction runs through the hooked step; off, the fast tier
   takes every instruction that needs no hook. *)
let drive ?(pinned = true) ?(syscall = fun _ -> true) machine ctx =
  let coverage = Coverage.create machine.Machine.program in
  let tick =
    if pinned then fun () -> ctx.Context.stats.Context.insns
    else Fast_loop.no_tick
  in
  let hooks = { Fast_loop.tick; branch = ignore; syscall } in
  Fast_loop.drive (Fast_loop.make machine ctx coverage) hooks ~spawning:false
    ~threshold:0 ~limit:1000

let t0 = Reg.tmp 0
let t1 = Reg.tmp 1
let g0 = Program.null_guard_words + 1 (* a free global word *)

let test_arith_and_halt () =
  let machine, result =
    run
      [
        Insn.Li (t0, 6);
        Insn.Binopi (Insn.Mul, t0, t0, 7);
        Insn.Store (t0, Reg.zero, g0);
        Insn.Halt;
      ]
  in
  Alcotest.(check bool) "halted" true (result.Engine.outcome = `Halted);
  Alcotest.(check int) "6*7" 42 (Memory.read machine.Machine.mem g0);
  Alcotest.(check int) "insns" 4 result.Engine.taken_insns

let test_branch_taken_and_not () =
  let machine, _ =
    run
      [
        Insn.Li (t0, 5);
        Insn.Br (Insn.Gt, t0, Reg.zero, 4);
        (* fallthrough: not executed *)
        Insn.Li (t1, 111);
        Insn.Jmp 5;
        Insn.Li (t1, 222);
        Insn.Store (t1, Reg.zero, g0);
        Insn.Halt;
      ]
  in
  Alcotest.(check int) "taken edge" 222 (Memory.read machine.Machine.mem g0)

let test_call_ret () =
  (* main: call f; store rv; halt --- f: rv := 9; ret *)
  let machine, _ =
    run
      [
        Insn.Call 3;
        Insn.Store (Reg.rv, Reg.zero, g0);
        Insn.Halt;
        Insn.Li (Reg.rv, 9);
        Insn.Ret;
      ]
  in
  Alcotest.(check int) "returned" 9 (Memory.read machine.Machine.mem g0)

let test_push_pop () =
  let machine, _ =
    run
      [
        Insn.Li (t0, 31);
        Insn.Push t0;
        Insn.Li (t0, 0);
        Insn.Pop t1;
        Insn.Store (t1, Reg.zero, g0);
        Insn.Halt;
      ]
  in
  Alcotest.(check int) "stack round-trip" 31 (Memory.read machine.Machine.mem g0)

let test_syscalls () =
  let machine, result =
    run ~input:"hi"
      [
        Insn.Syscall Insn.Sys_getc;
        Insn.Mov (Reg.arg 0, Reg.rv);
        Insn.Syscall Insn.Sys_putc;
        Insn.Li (Reg.arg 0, 42);
        Insn.Syscall Insn.Sys_print_int;
        Insn.Halt;
      ]
  in
  Alcotest.(check bool) "halted" true (result.Engine.outcome = `Halted);
  Alcotest.(check string) "echo + int" "h42" (Machine.output machine)

let test_exit () =
  let _, result =
    run [ Insn.Li (Reg.arg 0, 3); Insn.Syscall Insn.Sys_exit; Insn.Halt ]
  in
  Alcotest.(check bool) "exited 3" true (result.Engine.outcome = `Exited 3)

let test_getc_eof () =
  let machine, _ =
    run ~input:"" [ Insn.Syscall Insn.Sys_getc; Insn.Store (Reg.rv, Reg.zero, g0); Insn.Halt ]
  in
  Alcotest.(check int) "eof is -1" (-1) (Memory.read machine.Machine.mem g0)

let test_div_by_zero_fault () =
  let _, result = run [ Insn.Li (t0, 1); Insn.Binop (Insn.Div, t0, t0, Reg.zero); Insn.Halt ] in
  Alcotest.(check bool) "faulted" true (result.Engine.outcome = `Faulted Cpu.Div_by_zero)

let test_null_access_fault () =
  let _, result = run [ Insn.Load (t0, Reg.zero, 2); Insn.Halt ] in
  Alcotest.(check bool) "null fault" true
    (result.Engine.outcome = `Faulted (Cpu.Mem_fault Memory.Null_access))

let test_predication () =
  (* pred clear: Pred acts as NOP; set via sandboxed context below *)
  let machine, _ =
    run
      [
        Insn.Li (t0, 1);
        Insn.Pred (Insn.Li (t0, 99));
        Insn.Store (t0, Reg.zero, g0);
        Insn.Halt;
      ]
  in
  Alcotest.(check int) "pred off = nop" 1 (Memory.read machine.Machine.mem g0)

let test_predication_set () =
  let program =
    build
      [
        Insn.Li (t0, 1);
        Insn.Pred (Insn.Li (t0, 99));
        Insn.Clearpred;
        Insn.Pred (Insn.Li (t0, 55));
        Insn.Store (t0, Reg.zero, g0);
        Insn.Halt;
      ]
  in
  List.iter
    (fun pinned ->
      let machine = Machine.create program in
      let ctx = Machine.main_context machine in
      ctx.Context.pred <- true;
      Alcotest.(check bool) "halted" true
        (drive ~pinned machine ctx = Fast_loop.Halted);
      (* first Pred executed (99), Clearpred turned the second into a NOP *)
      Alcotest.(check int) "pred on then cleared" 99
        (Memory.read machine.Machine.mem g0))
    [ true; false ]

let test_sandboxed_syscall_blocked () =
  let program = build [ Insn.Syscall Insn.Sys_putc; Insn.Halt ] in
  List.iter
    (fun pinned ->
      let machine = Machine.create program in
      let ctx = Machine.main_context machine in
      let sb =
        Context.make_sandbox ~path_id:1 ~line_limit:10 ~words_per_line:8
      in
      Context.enter_sandbox ctx sb;
      (match drive ~pinned ~syscall:(fun _ -> false) machine ctx with
       | Fast_loop.Unsafe Insn.Sys_putc -> ()
       | _ -> Alcotest.fail "expected the unsafe putc");
      Alcotest.(check string) "no output" "" (Machine.output machine);
      Alcotest.(check int) "pc unchanged" 0 ctx.Context.pc)
    [ true; false ]

let test_sandboxed_writes_discarded () =
  let program =
    build [ Insn.Li (t0, 7); Insn.Store (t0, Reg.zero, g0); Insn.Halt ]
  in
  List.iter
    (fun pinned ->
      let machine = Machine.create program in
      let ctx = Machine.main_context machine in
      let sb =
        Context.make_sandbox ~path_id:1 ~line_limit:10 ~words_per_line:8
      in
      Context.enter_sandbox ctx sb;
      Alcotest.(check bool) "halted" true
        (drive ~pinned machine ctx = Fast_loop.Halted);
      Alcotest.(check int) "memory untouched" 0
        (Memory.read machine.Machine.mem g0))
    [ true; false ]

let test_checkz_reports () =
  let program =
    build
      ~sites:
        [|
          { Site.id = 0; line = 1; kind = Site.Assertion; descr = "fires" };
          { Site.id = 1; line = 2; kind = Site.Assertion; descr = "quiet" };
        |]
      [
        Insn.Li (t0, 0);
        Insn.Checkz (t0, 0);
        Insn.Li (t0, 1);
        Insn.Checkz (t0, 1);
        Insn.Halt;
      ]
  in
  let machine = Machine.create program in
  let _ = Engine.run ~config:Pe_config.baseline machine in
  Alcotest.(check (list int)) "only site 0" [ 0 ]
    (Report.distinct_sites machine.Machine.reports)

let test_watch_insn_triggers () =
  let program =
    build
      ~sites:[| { Site.id = 0; line = 1; kind = Site.Watchpoint; descr = "w" } |]
      [
        Insn.Li (t0, g0);
        Insn.Binopi (Insn.Add, t1, t0, 1);
        Insn.Watch (t0, t1, 0);
        Insn.Li (t1, 5);
        Insn.Store (t1, Reg.zero, g0);
        Insn.Halt;
      ]
  in
  let machine = Machine.create program in
  let _ = Engine.run ~config:Pe_config.baseline machine in
  Alcotest.(check (list int)) "watch fired" [ 0 ]
    (Report.distinct_sites machine.Machine.reports)

let test_bad_pc () =
  let program = build [ Insn.Jmp 1; Insn.Ret ] in
  (* Ret pops garbage (stack_base word = 0 is below null guard... the pop
     reads the word at sp = stack_base which is out of range) *)
  let machine = Machine.create program in
  let result = Engine.run ~config:Pe_config.baseline machine in
  (match result.Engine.outcome with
   | `Faulted _ -> ()
   | _ -> Alcotest.fail "expected a fault")

let test_cycles_include_memory_latency () =
  let _, result_fast = run [ Insn.Li (t0, 1); Insn.Halt ] in
  let _, result_mem =
    run [ Insn.Load (t0, Reg.zero, g0); Insn.Halt ]
  in
  Alcotest.(check bool) "memory access costs more" true
    (result_mem.Engine.taken_cycles > result_fast.Engine.taken_cycles)

let tests =
  [
    Alcotest.test_case "arithmetic and halt" `Quick test_arith_and_halt;
    Alcotest.test_case "branch" `Quick test_branch_taken_and_not;
    Alcotest.test_case "call/ret" `Quick test_call_ret;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "syscalls" `Quick test_syscalls;
    Alcotest.test_case "exit" `Quick test_exit;
    Alcotest.test_case "getc eof" `Quick test_getc_eof;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero_fault;
    Alcotest.test_case "null access" `Quick test_null_access_fault;
    Alcotest.test_case "predication off" `Quick test_predication;
    Alcotest.test_case "predication on" `Quick test_predication_set;
    Alcotest.test_case "sandboxed syscall blocked" `Quick test_sandboxed_syscall_blocked;
    Alcotest.test_case "sandboxed writes discarded" `Quick test_sandboxed_writes_discarded;
    Alcotest.test_case "checkz reports" `Quick test_checkz_reports;
    Alcotest.test_case "watch instruction" `Quick test_watch_insn_triggers;
    Alcotest.test_case "bad control flow faults" `Quick test_bad_pc;
    Alcotest.test_case "memory latency counted" `Quick test_cycles_include_memory_latency;
  ]
