(* Second-round tests: NT-Path cache-overflow termination, engine fuel,
   further MiniC semantics, and a bitrot guard that executes every
   registered experiment end to end. *)

let exec ?(options = Codegen.default_options) ?(input = "") source =
  let compiled = Compile.compile ~options source in
  let machine = Machine.create ~input compiled.Compile.program in
  (match (Engine.run ~config:Pe_config.baseline machine).Engine.outcome with
   | `Halted | `Exited _ -> ()
   | `Faulted f -> Alcotest.failf "faulted: %s" (Cpu.fault_to_string f)
   | `Fuel_exhausted -> Alcotest.fail "fuel");
  Machine.output machine

let check_output name source expected =
  Alcotest.(check string) name expected (exec source)

(* The forced edge dirties more distinct L1 lines than the cache can
   buffer: the paper's capacity-driven squash. Also run through the
   selective differential (test_selective.ml). *)
let l1_overflow_source =
  {|
int flag = 0;
int big[48000];
int main() {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    if (flag == 1) {
      int j;
      for (j = 0; j < 6000; j = j + 1) {
        big[j * 8] = j;
      }
    }
  }
  return 0;
}
|}

let l1_overflow_config =
  { Pe_config.default with Pe_config.max_nt_path_length = 1_000_000 }

let test_cache_overflow_terminates_path () =
  let compiled = Compile.compile l1_overflow_source in
  let machine = Machine.create compiled.Compile.program in
  let config = l1_overflow_config in
  let result = Engine.run ~config machine in
  let overflows =
    List.filter
      (fun (r : Nt_path.record) ->
        r.Nt_path.termination = Nt_path.T_cache_overflow)
      result.Engine.nt_records
  in
  Alcotest.(check bool) "some path overflowed L1 buffering" true
    (overflows <> []);
  List.iter
    (fun (r : Nt_path.record) ->
      (* 512 L1 lines at ~1 store each plus loop control: the path must have
         been cut well before the instruction budget *)
      Alcotest.(check bool) "cut before budget" true
        (r.Nt_path.insns < 1_000_000))
    overflows

let test_engine_fuel () =
  let source = "int main() { while (1 == 1) { } return 0; }" in
  let compiled = Compile.compile source in
  let machine = Machine.create compiled.Compile.program in
  let result = Engine.run ~config:Pe_config.baseline ~fuel:5_000 machine in
  Alcotest.(check bool) "fuel exhausted" true
    (result.Engine.outcome = `Fuel_exhausted)

let test_for_without_condition () =
  check_output "for(;;) with break"
    {|
int main() {
  int i = 0;
  for (;;) {
    i = i + 1;
    if (i == 4) { break; }
  }
  print_int(i);
  return 0;
}
|}
    "4"

let test_nested_break_continue () =
  check_output "nested loops"
    {|
int main() {
  int s = 0;
  int i;
  int j;
  for (i = 0; i < 4; i = i + 1) {
    for (j = 0; j < 4; j = j + 1) {
      if (j == 2) { break; }
      if (i == 1) { continue; }
      s = s + 10 * i + j;
    }
  }
  print_int(s);
  return 0;
}
|}
    (* i=0: j=0,1 -> 0+1; i=1: skipped; i=2: 20+21; i=3: 30+31 *)
    "103"

let test_struct_arrays_of_structs () =
  check_output "array of structs"
    {|
struct point {
  int x;
  int y;
};
struct point pts[3];
int main() {
  int i;
  for (i = 0; i < 3; i = i + 1) {
    pts[i].x = i;
    pts[i].y = i * i;
  }
  print_int(pts[2].x + pts[2].y + pts[1].y);
  return 0;
}
|}
    "7"

let test_pointer_to_struct_field () =
  check_output "&s.f through a pointer"
    {|
struct pair {
  int a;
  int b;
};
struct pair p;
int main() {
  int *q = &p.b;
  *q = 9;
  print_int(p.b);
  return 0;
}
|}
    "9"

let test_ternary_in_condition () =
  check_output "ternary nested in if"
    {|
int main() {
  int x = 5;
  if ((x > 3 ? 1 : 0) == 1) {
    print_int(7);
  } else {
    print_int(8);
  }
  return 0;
}
|}
    "7"

let test_deep_expression () =
  check_output "deep but within temporaries"
    "int main() { print_int(((1+2)*(3+4))+((5+6)*(7+8))); return 0; }" "186"

let test_comparison_chain_values () =
  check_output "comparisons as values"
    "int main() { int a = 3 < 5; int b = (a == 1) + (2 > 7); print_int(b); return 0; }"
    "1"

let test_shadowing () =
  check_output "block shadowing"
    {|
int x = 1;
int main() {
  int x = 2;
  {
    int x = 3;
    print_int(x);
  }
  print_int(x);
  return 0;
}
|}
    "32"

let test_recursion_depth () =
  check_output "deep recursion"
    {|
int down(int n) {
  if (n == 0) { return 0; }
  return 1 + down(n - 1);
}
int main() { print_int(down(500)); return 0; }
|}
    "500"

let test_all_experiments_execute () =
  (* bitrot guard: every registered experiment must run to completion *)
  List.iter (fun e -> ignore (Runner.capture Run_spec.default e)) Runner.all

let test_experiment_ids_unique () =
  let ids = Runner.ids () in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let tests =
  [
    Alcotest.test_case "cache overflow terminates path" `Quick
      test_cache_overflow_terminates_path;
    Alcotest.test_case "engine fuel" `Quick test_engine_fuel;
    Alcotest.test_case "for without condition" `Quick test_for_without_condition;
    Alcotest.test_case "nested break/continue" `Quick test_nested_break_continue;
    Alcotest.test_case "arrays of structs" `Quick test_struct_arrays_of_structs;
    Alcotest.test_case "pointer to struct field" `Quick test_pointer_to_struct_field;
    Alcotest.test_case "ternary in condition" `Quick test_ternary_in_condition;
    Alcotest.test_case "deep expression" `Quick test_deep_expression;
    Alcotest.test_case "comparison chain" `Quick test_comparison_chain_values;
    Alcotest.test_case "shadowing" `Quick test_shadowing;
    Alcotest.test_case "recursion depth" `Quick test_recursion_depth;
    Alcotest.test_case "experiment ids unique" `Quick test_experiment_ids_unique;
    Alcotest.test_case "all experiments execute" `Slow test_all_experiments_execute;
  ]
