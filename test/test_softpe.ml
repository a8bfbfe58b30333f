(* Software-PathExpander tests: functional equivalence with the hardware
   engine, NT-Paths leaving committed memory untouched, the fuel bound, and
   cost-model accounting. *)

let run_both (workload : Workload.t) =
  let compiled = Workload.compile workload in
  let hw_machine =
    Machine.create ~input:workload.Workload.default_input compiled.Compile.program
  in
  let hw = Engine.run ~config:(Workload.pe_config workload) hw_machine in
  let sw_machine =
    Machine.create ~input:workload.Workload.default_input compiled.Compile.program
  in
  let sw = Soft_engine.run ~config:(Workload.pe_config workload) sw_machine in
  (hw_machine, hw, sw_machine, sw)

let test_same_program_outcome () =
  let hw_machine, hw, sw_machine, sw = run_both Registry.print_tokens in
  Alcotest.(check string) "same output"
    (Machine.output hw_machine) (Machine.output sw_machine);
  Alcotest.(check bool) "both halt" true
    (hw.Engine.outcome = `Halted && sw.Soft_engine.outcome = `Halted)

let test_software_history_not_btb_limited () =
  (* the software exercise history is exact; the hardware BTB can alias and
     evict. On small programs they agree in spawn counts. *)
  let _, hw, _, sw = run_both Registry.print_tokens in
  Alcotest.(check int) "same spawns" hw.Engine.spawns sw.Soft_engine.spawns

let test_software_coverage_matches () =
  let _, hw, _, sw = run_both Registry.print_tokens in
  Alcotest.(check (float 0.001)) "same combined coverage"
    (Coverage.combined_pct hw.Engine.coverage)
    (Coverage.combined_pct sw.Soft_engine.coverage)

let test_nt_paths_leave_memory_untouched () =
  (* after a software run with many NT-Paths, the architectural memory must
     equal a baseline run's memory word for word *)
  let workload = Registry.schedule in
  let compiled = Workload.compile workload in
  let run_mem soft =
    let machine =
      Machine.create ~input:workload.Workload.default_input compiled.Compile.program
    in
    (if soft then ignore (Soft_engine.run ~config:(Workload.pe_config workload) machine)
     else ignore (Engine.run ~config:Pe_config.baseline machine));
    machine.Machine.mem
  in
  let base = run_mem false in
  let soft = run_mem true in
  let differences = ref 0 in
  for addr = Memory.null_guard to Memory.size base - 1 do
    if Memory.read base addr <> Memory.read soft addr then incr differences
  done;
  Alcotest.(check int) "memory identical after NT-Paths" 0 !differences

(* [fuel] bounds the taken path alone, as in [Engine.run]: NT-Path
   instructions run on the arena's own context and do not draw on it. *)
let test_fuel_bounds_taken_path () =
  let workload = Registry.print_tokens in
  let compiled = Workload.compile workload in
  let machine =
    Machine.create ~input:workload.Workload.default_input compiled.Compile.program
  in
  let sw =
    Soft_engine.run ~config:(Workload.pe_config workload) ~fuel:5000 machine
  in
  Alcotest.(check string) "outcome" "fuel-exhausted"
    (Engine.outcome_name sw.Soft_engine.outcome);
  Alcotest.(check int) "taken instructions" 5000
    sw.Soft_engine.accounting.Pin_model.native_insns

let test_accounting_magnitude () =
  let _, _, _, sw = run_both Registry.print_tokens in
  let acc = sw.Soft_engine.accounting in
  Alcotest.(check bool) "slowdown well above 10x" true
    (acc.Pin_model.slowdown > 10.0);
  Alcotest.(check bool) "host insns exceed native" true
    (acc.Pin_model.host_insns > acc.Pin_model.native_insns)

let test_pin_model_formula () =
  let acc =
    Pin_model.account Pin_model.default ~taken_insns:1000 ~taken_branches:100
      ~spawns:2 ~nt_insns:500 ~nt_branches:50 ~nt_writes:30
  in
  let m = Pin_model.default in
  let expected =
    (1000 * m.Pin_model.dilation)
    + (100 * m.Pin_model.branch_analysis_insns)
    + (2 * (m.Pin_model.spawn_insns + m.Pin_model.restore_base_insns))
    + (500 * m.Pin_model.dilation)
    + (50 * m.Pin_model.branch_analysis_insns)
    + (30 * (m.Pin_model.write_log_insns + m.Pin_model.restore_per_write_insns))
  in
  Alcotest.(check int) "formula" expected acc.Pin_model.host_insns;
  Alcotest.(check (float 1e-9)) "slowdown"
    (float_of_int expected /. 1000.0)
    acc.Pin_model.slowdown

let test_zero_native () =
  let acc =
    Pin_model.account Pin_model.default ~taken_insns:0 ~taken_branches:0
      ~spawns:0 ~nt_insns:0 ~nt_branches:0 ~nt_writes:0
  in
  Alcotest.(check (float 1e-9)) "no division by zero" 0.0 acc.Pin_model.slowdown

let tests =
  [
    Alcotest.test_case "same program outcome" `Quick test_same_program_outcome;
    Alcotest.test_case "same spawns" `Quick test_software_history_not_btb_limited;
    Alcotest.test_case "same coverage" `Quick test_software_coverage_matches;
    Alcotest.test_case "NT-Paths leave memory untouched" `Quick
      test_nt_paths_leave_memory_untouched;
    Alcotest.test_case "fuel bounds the taken path" `Quick
      test_fuel_bounds_taken_path;
    Alcotest.test_case "accounting magnitude" `Quick test_accounting_magnitude;
    Alcotest.test_case "pin model formula" `Quick test_pin_model_formula;
    Alcotest.test_case "zero native insns" `Quick test_zero_native;
  ]
