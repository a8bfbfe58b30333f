(* Engine tests: NT-Path lifecycle, sandbox isolation of the architectural
   state, coverage accounting, BTB-driven selection policy, termination
   conditions, and standard/CMP equivalence. *)

let cold_path_source =
  {|
int flag = 0;
int out = 0;
int hits = 0;

void rare(int x) {
  // only reachable when flag is set, which no input does
  hits = hits + 1;
  out = out + x;
}

int main() {
  int i;
  for (i = 0; i < 12; i = i + 1) {
    if (flag == 1) {
      rare(i);
    }
    out = out + 1;
  }
  print_int(out);
  print_int(hits);
  return 0;
}
|}

let run_source ?(config = Pe_config.default) ?(input = "") ?options source =
  let compiled = Compile.compile ?options source in
  let machine = Machine.create ~input compiled.Compile.program in
  let result = Engine.run ~config machine in
  (compiled, machine, result)

let test_baseline_spawns_nothing () =
  let _, _, result =
    run_source ~config:Pe_config.baseline cold_path_source
  in
  Alcotest.(check int) "no spawns" 0 result.Engine.spawns;
  Alcotest.(check (list pass)) "no records" [] result.Engine.nt_records

let test_nt_paths_have_no_side_effects () =
  (* the flag==1 edge is forced repeatedly, executing rare() in the sandbox;
     the program output must be exactly the baseline's *)
  let _, machine_base, _ =
    run_source ~config:Pe_config.baseline cold_path_source
  in
  let _, machine_pe, result = run_source cold_path_source in
  Alcotest.(check bool) "spawned" true (result.Engine.spawns > 0);
  Alcotest.(check string) "identical output"
    (Machine.output machine_base) (Machine.output machine_pe)

let test_spawn_threshold () =
  (* the forced edge's counter is bumped at spawn, so one static cold edge
     spawns exactly NTPathCounterThreshold times *)
  let config = { Pe_config.default with Pe_config.nt_counter_threshold = 3 } in
  let _, _, result = run_source ~config cold_path_source in
  let flag_edge_spawns =
    List.length
      (List.filter
         (fun (r : Nt_path.record) -> r.Nt_path.forced_direction)
         result.Engine.nt_records)
  in
  Alcotest.(check bool) "bounded by threshold" true (flag_edge_spawns <= 3 * 4)

let test_spawn_counts_scale_with_threshold () =
  let spawns t =
    let config = { Pe_config.default with Pe_config.nt_counter_threshold = t } in
    let _, _, result = run_source ~config cold_path_source in
    result.Engine.spawns
  in
  Alcotest.(check bool) "monotone in threshold" true (spawns 1 <= spawns 5)

let test_max_length_termination () =
  let config = { Pe_config.default with Pe_config.max_nt_path_length = 25 } in
  let _, _, result = run_source ~config cold_path_source in
  List.iter
    (fun (r : Nt_path.record) ->
      Alcotest.(check bool) "length bounded" true (r.Nt_path.insns <= 25))
    result.Engine.nt_records

let test_unsafe_event_termination () =
  let source =
    {|
int flag = 0;
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    if (flag == 1) {
      putc('x');
      putc('y');
    }
  }
  putc('.');
  return 0;
}
|}
  in
  let _, machine, result = run_source source in
  let unsafe =
    List.filter (fun r -> Nt_path.is_unsafe r) result.Engine.nt_records
  in
  Alcotest.(check bool) "some NT-Paths hit the putc" true (unsafe <> []);
  Alcotest.(check string) "output untouched" "." (Machine.output machine)

let test_crash_termination_swallowed () =
  let source =
    {|
int flag = 0;
int *p = NULL;
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    if (flag == 1) {
      // forced edge dereferences NULL: crash inside the NT-Path only
      p[0] = 1;
    }
  }
  print_int(9);
  return 0;
}
|}
  in
  (* without fixing, p stays NULL on the forced edge *)
  let options = { Codegen.detector = Codegen.No_detector; fixing = false } in
  let config = { Pe_config.default with Pe_config.fixing = false } in
  let _, machine, result = run_source ~options ~config source in
  let crashes = List.filter Nt_path.is_crash result.Engine.nt_records in
  Alcotest.(check bool) "NT-Paths crashed" true (crashes <> []);
  Alcotest.(check bool) "program unharmed" true
    (result.Engine.outcome = `Halted);
  Alcotest.(check string) "output intact" "9" (Machine.output machine)

let test_fixing_repairs_condition () =
  (* with fixing, the forced edge sees flag = 1 and rare() runs without
     crashing; the 'hits' assertion-like counter lives in the sandbox *)
  let source =
    {|
int flag = 0;
int witness = 0;
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    if (flag == 1) {
      if (flag == 1) { witness = 1; }
      if (flag == 0) { witness = 2; }
    }
  }
  print_int(witness);
  return 0;
}
|}
  in
  (* The inner branches follow the *fixed* flag: with fixing on, an NT-Path
     entering the outer edge must take the flag==1 inner branch. We observe
     it via coverage: the witness=1 edge is covered, witness=2 is not. *)
  let compiled = Compile.compile source in
  let machine = Machine.create compiled.Compile.program in
  let result = Engine.run machine in
  Alcotest.(check bool) "spawned" true (result.Engine.spawns > 0);
  let cov = result.Engine.coverage in
  Alcotest.(check bool) "NT coverage above baseline" true
    (Coverage.combined_pct cov > Coverage.taken_pct cov)

let test_coverage_accounting () =
  let _, _, result = run_source cold_path_source in
  let cov = result.Engine.coverage in
  Alcotest.(check bool) "baseline below 100" true (Coverage.taken_pct cov < 100.0);
  Alcotest.(check bool) "PE above baseline" true
    (Coverage.combined_pct cov > Coverage.taken_pct cov);
  Alcotest.(check bool) "PE at most 100" true (Coverage.combined_pct cov <= 100.0);
  Alcotest.(check bool) "edges bounded by universe" true
    (Coverage.combined_edges cov <= Coverage.edge_universe_size cov)

let test_standard_cmp_equivalence () =
  (* functionally identical: same coverage, same reports, same output.
     [MaxNumNTPaths] is lifted so the CMP option suppresses no spawns (its
     only functional difference from the standard configuration). *)
  let compiled =
    Workload.compile ~detector:Codegen.Ccured ~bug:10 Registry.print_tokens2
  in
  let run mode =
    let machine =
      Machine.create ~input:Registry.print_tokens2.Workload.default_input
        compiled.Compile.program
    in
    let config =
      {
        (Workload.pe_config ~mode Registry.print_tokens2) with
        Pe_config.max_num_nt_paths = max_int;
      }
    in
    let result = Engine.run ~config machine in
    (machine, result)
  in
  let m_std, r_std = run Pe_config.Standard in
  let m_cmp, r_cmp = run Pe_config.Cmp in
  Alcotest.(check string) "same output" (Machine.output m_std) (Machine.output m_cmp);
  Alcotest.(check (list int)) "same report sites"
    (Report.distinct_sites m_std.Machine.reports)
    (Report.distinct_sites m_cmp.Machine.reports);
  Alcotest.(check int) "same spawns" r_std.Engine.spawns r_cmp.Engine.spawns;
  Alcotest.(check (float 0.001)) "same coverage"
    (Coverage.combined_pct r_std.Engine.coverage)
    (Coverage.combined_pct r_cmp.Engine.coverage)

let test_cmp_cheaper_than_standard () =
  let compiled = Workload.compile Registry.print_tokens in
  let total mode =
    let machine =
      Machine.create ~input:Registry.print_tokens.Workload.default_input
        compiled.Compile.program
    in
    let config = Workload.pe_config ~mode Registry.print_tokens in
    (Engine.run ~config machine).Engine.total_cycles
  in
  let baseline = total Pe_config.Baseline in
  let standard = total Pe_config.Standard in
  let cmp = total Pe_config.Cmp in
  Alcotest.(check bool) "standard > baseline" true (standard > baseline);
  Alcotest.(check bool) "cmp < standard" true (cmp < standard);
  Alcotest.(check bool) "cmp >= baseline" true (cmp >= baseline)

let test_max_num_nt_paths_limits () =
  let compiled = Workload.compile Registry.print_tokens in
  let skipped limit =
    let machine =
      Machine.create ~input:Registry.print_tokens.Workload.default_input
        compiled.Compile.program
    in
    let config =
      {
        (Workload.pe_config ~mode:Pe_config.Cmp Registry.print_tokens) with
        Pe_config.max_num_nt_paths = limit;
      }
    in
    (Engine.run ~config machine).Engine.skipped_spawns
  in
  Alcotest.(check bool) "tight limit skips more" true (skipped 1 > skipped 32)

let test_counter_reset_respawns () =
  let spawns interval =
    let config =
      { Pe_config.default with Pe_config.counter_reset_interval = interval }
    in
    let _, _, result = run_source ~config cold_path_source in
    result.Engine.spawns
  in
  Alcotest.(check bool) "frequent resets spawn more" true
    (spawns 200 > spawns max_int)

let test_reports_survive_squash () =
  (* a detector report filed inside an NT-Path survives its rollback: the
     monitor memory area semantics *)
  let source =
    {|
int flag = 0;
int t[4];
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    if (flag == 1) {
      t[9] = 1;
    }
  }
  return 0;
}
|}
  in
  let options = { Codegen.detector = Codegen.Ccured; fixing = true } in
  let _, machine, _ = run_source ~options source in
  Alcotest.(check bool) "overrun reported from NT-Path" true
    (Report.sites_from_nt_paths machine.Machine.reports <> [])

let test_watchpoints_restored_after_squash () =
  (* NT-Paths that register watchpoints (via malloc/free) must leave the
     watch table exactly as it was *)
  let source =
    {|
int flag = 0;
int main() {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    if (flag == 1) {
      int *p = malloc(4);
      free(p);
    }
  }
  return 0;
}
|}
  in
  let options = { Codegen.detector = Codegen.Iwatcher; fixing = true } in
  let compiled = Compile.compile ~options source in
  let machine = Machine.create compiled.Compile.program in
  let before = Watchpoints.count machine.Machine.watch in
  let result = Engine.run machine in
  Alcotest.(check bool) "spawned" true (result.Engine.spawns > 0);
  Alcotest.(check int) "watch table restored" before
    (Watchpoints.count machine.Machine.watch)

(* Hostile input: [free] of a block whose size header was overwritten with
   a negative value watches the inverted range [p, p - 5). It must watch
   nothing, like an empty range, and every engine must run the program to
   its normal end. *)
let negative_header_source =
  "int main() { int *p = malloc(4); p[-1] = -5; free(p); print_int(7); \
   exit(0); return 0; }"

let test_free_negative_header () =
  let options = { Codegen.detector = Codegen.Iwatcher; fixing = true } in
  let compiled = Compile.compile ~options ~level:Opt.O0 negative_header_source in
  let check name outcome machine =
    Alcotest.(check string) (name ^ ": outcome") "exited(0)"
      (Engine.outcome_name outcome);
    Alcotest.(check string) (name ^ ": output") "7" (Machine.output machine)
  in
  List.iter
    (fun (name, config) ->
      let machine = Machine.create compiled.Compile.program in
      let result = Engine.run ~config machine in
      check name result.Engine.outcome machine)
    [
      ("baseline", Pe_config.baseline);
      ("standard", Pe_config.default);
      ("cmp", { Pe_config.default with Pe_config.mode = Pe_config.Cmp });
    ];
  let machine = Machine.create compiled.Compile.program in
  let result = Soft_engine.run machine in
  check "software" result.Soft_engine.outcome machine

let test_counter_reset_pinned_to_primary () =
  (* Regression: [CounterResetInterval] must be driven by the primary
     context's retired instructions, not [Machine.insn_index] (which also
     advances inside sandboxed NT-Paths and would accelerate the cadence by
     however much speculative work happened to run). *)
  let interval = 40 in
  let config =
    { Pe_config.default with Pe_config.counter_reset_interval = interval }
  in
  let _, machine, result = run_source ~config cold_path_source in
  let tel = machine.Machine.telemetry in
  let taken = result.Engine.taken_insns in
  let nt = Telemetry.counter tel "nt.insns" in
  let resets = Telemetry.counter tel "btb.counter_resets" in
  Alcotest.(check bool) "NT-Paths ran enough to skew a global cadence" true
    (nt > 2 * interval);
  Alcotest.(check bool) "resets follow primary retirement" true
    (resets >= (taken / interval) - 1 && resets <= taken / interval);
  Alcotest.(check bool) "not inflated by sandboxed instructions" true
    (resets < (taken + nt) / interval)

let test_path_id_wrap () =
  (* More than 255 spawns wraps the 8-bit version-tag space; id reuse must
     not let an old path's squash destroy anything, and the architectural
     output must stay exactly the baseline's. *)
  let w = Registry.go in
  let compile () = Workload.compile w in
  let run mode =
    let compiled = compile () in
    let machine =
      Machine.create ~input:w.Workload.default_input compiled.Compile.program
    in
    let result = Engine.run ~config:(Workload.pe_config ~mode w) machine in
    (machine, result)
  in
  let machine_base, _ = run Pe_config.Baseline in
  let machine_pe, result = run Pe_config.Standard in
  Alcotest.(check bool) "spawns exceed the id space" true
    (result.Engine.spawns > 255);
  Alcotest.(check string) "output identical to baseline"
    (Machine.output machine_base) (Machine.output machine_pe);
  Alcotest.(check bool) "defensive cleanup found nothing stale" true
    (Telemetry.counter machine_pe.Machine.telemetry "path_id.stale_lines_cleaned"
     = 0)

let test_run_telemetry_populated () =
  let _, machine, result = run_source cold_path_source in
  let tel = machine.Machine.telemetry in
  Alcotest.(check int) "spawn counter mirrors result" result.Engine.spawns
    (Telemetry.counter tel "engine.spawns");
  Alcotest.(check int) "taken insns mirror result" result.Engine.taken_insns
    (Telemetry.counter tel "taken.insns");
  Alcotest.(check bool) "engine.run span recorded" true
    (Telemetry.timer_total tel "engine.run" > 0.0);
  Alcotest.(check bool) "coverage gauge set" true
    (Telemetry.gauge_value tel "coverage.combined_pct" <> None);
  (* The NT-Path metrics are a fold over the run's records. *)
  let records = result.Engine.nt_records in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 records in
  Alcotest.(check bool) "the run spawned" true (records <> []);
  Alcotest.(check int) "terminations add up to the spawns"
    result.Engine.spawns
    (List.fold_left
       (fun acc (name, _) -> acc + Telemetry.counter tel ("nt.term." ^ name))
       0
       (Nt_path.termination_counts records));
  Alcotest.(check int) "nt.insns sums the records"
    (sum (fun r -> r.Nt_path.insns))
    (Telemetry.counter tel "nt.insns");
  Alcotest.(check int) "nt.squashed_lines sums the records"
    (sum (fun r -> r.Nt_path.squashed_lines))
    (Telemetry.counter tel "nt.squashed_lines");
  Alcotest.(check int) "one nt.len observation per record"
    (List.length records) (Telemetry.hist_count tel "nt.len");
  Alcotest.(check int) "btb.counter_resets counts the resets"
    (List.length result.Engine.counter_resets)
    (Telemetry.counter tel "btb.counter_resets")

let tests =
  [
    Alcotest.test_case "baseline spawns nothing" `Quick test_baseline_spawns_nothing;
    Alcotest.test_case "NT-Paths side-effect free" `Quick test_nt_paths_have_no_side_effects;
    Alcotest.test_case "spawn threshold" `Quick test_spawn_threshold;
    Alcotest.test_case "spawns scale with threshold" `Quick test_spawn_counts_scale_with_threshold;
    Alcotest.test_case "max-length termination" `Quick test_max_length_termination;
    Alcotest.test_case "unsafe-event termination" `Quick test_unsafe_event_termination;
    Alcotest.test_case "crash swallowed" `Quick test_crash_termination_swallowed;
    Alcotest.test_case "fixing repairs condition" `Quick test_fixing_repairs_condition;
    Alcotest.test_case "coverage accounting" `Quick test_coverage_accounting;
    Alcotest.test_case "standard = cmp functionally" `Quick test_standard_cmp_equivalence;
    Alcotest.test_case "cmp cheaper than standard" `Quick test_cmp_cheaper_than_standard;
    Alcotest.test_case "MaxNumNTPaths limits" `Quick test_max_num_nt_paths_limits;
    Alcotest.test_case "counter reset respawns" `Quick test_counter_reset_respawns;
    Alcotest.test_case "reports survive squash" `Quick test_reports_survive_squash;
    Alcotest.test_case "watchpoints restored" `Quick test_watchpoints_restored_after_squash;
    Alcotest.test_case "free of a negative-size block" `Quick
      test_free_negative_header;
    Alcotest.test_case "counter reset pinned to primary" `Quick
      test_counter_reset_pinned_to_primary;
    Alcotest.test_case "path-id wrap" `Slow test_path_id_wrap;
    Alcotest.test_case "run telemetry populated" `Quick
      test_run_telemetry_populated;
  ]
