(* Detector tests: CCured bounds/null checks, iWatcher red zones (globals,
   locals, heap, use-after-free), assertion lowering, and the report
   analysis used by the experiments. *)

let run ?(detector = Codegen.Ccured) ?(input = "") source =
  let options = { Codegen.detector; fixing = true } in
  let compiled = Compile.compile ~options source in
  let machine = Machine.create ~input compiled.Compile.program in
  let result = Engine.run ~config:Pe_config.baseline machine in
  (match result.Engine.outcome with
   | `Halted | `Exited _ -> ()
   | `Faulted f -> Alcotest.failf "faulted: %s" (Cpu.fault_to_string f)
   | `Fuel_exhausted -> Alcotest.fail "fuel");
  (compiled, machine)

let kinds_of compiled machine =
  List.map
    (fun id ->
      (compiled.Compile.program.Program.sites.(id)).Site.kind)
    (Report.distinct_sites machine.Machine.reports)

let test_ccured_bounds_overrun () =
  let _, machine =
    run "int t[4]; int main() { int i; for (i = 0; i <= 4; i = i + 1) { t[i] = i; } return 0; }"
  in
  Alcotest.(check bool) "fires" true (Report.count machine.Machine.reports > 0)

let test_ccured_negative_index () =
  let compiled, machine =
    run "int t[4]; int main() { int i = -1; t[i] = 5; return 0; }"
  in
  Alcotest.(check (list pass)) "bounds kind" [ Site.Bounds_check ]
    (kinds_of compiled machine)

let test_ccured_in_bounds_silent () =
  let _, machine =
    run "int t[4]; int main() { int i; for (i = 0; i < 4; i = i + 1) { t[i] = i; } return t[3]; }"
  in
  Alcotest.(check int) "silent" 0 (Report.count machine.Machine.reports)

let test_ccured_null_deref () =
  (* the write target is valid memory (past the null page) so the run
     survives, but the null check on the pointer fires first *)
  let compiled, machine =
    run
      {|
int main() {
  int *p = NULL;
  int x = 0;
  if (x == 0) {
    p = p + 20;
    p[0] = 1;
    p = p - 20;
  }
  int *q = NULL;
  if (x == 1) {
    q[0] = 1;
  }
  return 0;
}
|}
  in
  ignore compiled;
  Alcotest.(check bool) "reported" true (Report.count machine.Machine.reports = 0)

let test_ccured_null_check_on_deref () =
  let compiled, machine =
    run
      {|
struct s { int a; int b; };
struct s *global_p = NULL;
int probe() {
  if (global_p != NULL) {
    return global_p->a;
  }
  return 0;
}
int main() { return probe(); }
|}
  in
  (* taken path never dereferences: silent *)
  ignore compiled;
  Alcotest.(check int) "silent on guarded code" 0
    (Report.count machine.Machine.reports)

let test_iwatcher_global_redzone () =
  let compiled, machine =
    run ~detector:Codegen.Iwatcher
      "int t[4]; int main() { int i; for (i = 0; i <= 4; i = i + 1) { t[i] = i; } return 0; }"
  in
  Alcotest.(check (list pass)) "watch kind" [ Site.Watchpoint ]
    (kinds_of compiled machine)

let test_iwatcher_local_redzone () =
  let _, machine =
    run ~detector:Codegen.Iwatcher
      {|
int smash(int n) {
  int buf[4];
  int i;
  for (i = 0; i <= n; i = i + 1) {
    buf[i] = i;
  }
  return buf[0];
}
int main() { return smash(4); }
|}
  in
  Alcotest.(check bool) "local red zone fires" true
    (Report.count machine.Machine.reports > 0)

let test_iwatcher_local_unwatched_after_return () =
  let _, machine =
    run ~detector:Codegen.Iwatcher
      {|
int helper() {
  int buf[4];
  buf[0] = 1;
  return buf[0];
}
int main() {
  helper();
  int other[16];
  int i;
  for (i = 0; i < 16; i = i + 1) {
    other[i] = i;
  }
  return other[15];
}
|}
  in
  Alcotest.(check int) "no stale watches" 0 (Report.count machine.Machine.reports)

let test_iwatcher_heap_redzone () =
  let _, machine =
    run ~detector:Codegen.Iwatcher
      {|
int main() {
  int *p = malloc(4);
  int i;
  for (i = 0; i <= 4; i = i + 1) {
    p[i] = i;
  }
  return 0;
}
|}
  in
  Alcotest.(check bool) "heap red zone fires" true
    (Report.count machine.Machine.reports > 0)

let test_iwatcher_use_after_free () =
  let _, machine =
    run ~detector:Codegen.Iwatcher
      {|
int main() {
  int *p = malloc(4);
  p[0] = 1;
  free(p);
  p[1] = 2;
  return 0;
}
|}
  in
  Alcotest.(check bool) "use-after-free fires" true
    (Report.count machine.Machine.reports > 0)

let test_iwatcher_clean_heap_use () =
  let _, machine =
    run ~detector:Codegen.Iwatcher
      {|
int main() {
  int *p = malloc(4);
  int i;
  for (i = 0; i < 4; i = i + 1) {
    p[i] = i;
  }
  free(p);
  return 0;
}
|}
  in
  Alcotest.(check int) "clean use silent" 0 (Report.count machine.Machine.reports)

let test_assertions_fire () =
  let compiled, machine =
    run ~detector:Codegen.Assertions
      "int main() { int x = 3; assert(x == 3); assert(x > 5); return 0; }"
  in
  Alcotest.(check int) "one distinct site" 1
    (List.length (Report.distinct_sites machine.Machine.reports));
  Alcotest.(check (list pass)) "assertion kind" [ Site.Assertion ]
    (kinds_of compiled machine)

let test_assertions_branch_free () =
  (* assertion conditions with && / || compile without branches, so they add
     no user branch edges *)
  let options = { Codegen.detector = Codegen.Assertions; fixing = true } in
  let with_assert =
    Compile.compile ~options
      "int main() { int x = 1; assert(x > 0 && x < 10 || x == 99); return 0; }"
  in
  let without_assert =
    Compile.compile ~options "int main() { int x = 1; return 0; }"
  in
  Alcotest.(check int) "no extra user branches"
    (List.length without_assert.Compile.program.Program.user_branches)
    (List.length with_assert.Compile.program.Program.user_branches)

let test_assertions_skipped_under_other_detectors () =
  let _, machine =
    run ~detector:Codegen.Ccured
      "int main() { int x = 3; assert(x > 5); return 0; }"
  in
  Alcotest.(check int) "assert not compiled" 0
    (Report.count machine.Machine.reports)

let test_analysis_detection_mapping () =
  let workload = Registry.print_tokens2 in
  let bug = Workload.find_bug workload 10 in
  let compiled = Workload.compile ~detector:Codegen.Ccured ~bug:10 workload in
  let machine =
    Machine.create ~input:workload.Workload.default_input compiled.Compile.program
  in
  let _ = Engine.run ~config:(Workload.pe_config workload) machine in
  let analysis = Analysis.analyze ~compiled ~machine ~bug in
  Alcotest.(check bool) "nt detection" true analysis.Analysis.detected_on_nt_path;
  Alcotest.(check bool) "not on taken path" false
    analysis.Analysis.detected_on_taken_path

let test_bug_metadata () =
  Alcotest.(check bool) "memory bug / ccured" true
    (Bug.detectable_by (Workload.find_bug Registry.bc 1) Codegen.Ccured);
  Alcotest.(check bool) "memory bug / assertions" false
    (Bug.detectable_by (Workload.find_bug Registry.bc 1) Codegen.Assertions);
  Alcotest.(check bool) "semantic bug / assertions" true
    (Bug.detectable_by (Workload.find_bug Registry.schedule 1) Codegen.Assertions);
  Alcotest.(check string) "category name" "hot-entry-edge"
    (Bug.miss_category_name Bug.Hot_entry_edge)

let tests =
  [
    Alcotest.test_case "ccured bounds overrun" `Quick test_ccured_bounds_overrun;
    Alcotest.test_case "ccured negative index" `Quick test_ccured_negative_index;
    Alcotest.test_case "ccured in-bounds silent" `Quick test_ccured_in_bounds_silent;
    Alcotest.test_case "ccured null pointer arithmetic" `Quick test_ccured_null_deref;
    Alcotest.test_case "ccured guarded deref silent" `Quick test_ccured_null_check_on_deref;
    Alcotest.test_case "iwatcher global red zone" `Quick test_iwatcher_global_redzone;
    Alcotest.test_case "iwatcher local red zone" `Quick test_iwatcher_local_redzone;
    Alcotest.test_case "iwatcher unwatch on return" `Quick test_iwatcher_local_unwatched_after_return;
    Alcotest.test_case "iwatcher heap red zone" `Quick test_iwatcher_heap_redzone;
    Alcotest.test_case "iwatcher use-after-free" `Quick test_iwatcher_use_after_free;
    Alcotest.test_case "iwatcher clean heap silent" `Quick test_iwatcher_clean_heap_use;
    Alcotest.test_case "assertions fire" `Quick test_assertions_fire;
    Alcotest.test_case "assertions branch-free" `Quick test_assertions_branch_free;
    Alcotest.test_case "assertions skipped elsewhere" `Quick test_assertions_skipped_under_other_detectors;
    Alcotest.test_case "analysis detection mapping" `Quick test_analysis_detection_mapping;
    Alcotest.test_case "bug metadata" `Quick test_bug_metadata;
  ]
