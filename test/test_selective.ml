(* Selective (fast/slow split) execution tests: the shift-mask regression,
   fault-arm audits, div-by-zero parity, BTB fused-operation equivalence,
   and the house invariant — every observable of a selective run is
   identical to the run with every instruction on the hooked step, on the
   curated workloads, under DIDUCE and on randomly generated MiniC
   programs. *)

(* --- shift-mask regression -------------------------------------------------- *)

(* The shift amount is masked to the word size (63), not 62: a [land 62]
   mask zeroes bit 0, silently turning every odd shift amount into the next
   smaller even one — [shl x, 1] evaluated to [x]. Exercise the faulting
   wrapper and the ALU evaluator both interpreter tiers share on odd
   amounts. *)
let test_shift_mask () =
  List.iter
    (fun s ->
      Alcotest.(check (option int))
        (Printf.sprintf "eval_binop shl by %d" s)
        (Some (3 lsl s))
        (Insn.eval_binop Insn.Shl 3 s);
      Alcotest.(check int)
        (Printf.sprintf "eval_alu shl by %d" s)
        (3 lsl s)
        (Insn.eval_alu Insn.Shl 3 s);
      Alcotest.(check (option int))
        (Printf.sprintf "eval_binop shr by %d" s)
        (Some (-4096 asr s))
        (Insn.eval_binop Insn.Shr (-4096) s);
      Alcotest.(check int)
        (Printf.sprintf "eval_alu shr by %d" s)
        (-4096 asr s)
        (Insn.eval_alu Insn.Shr (-4096) s))
    [ 1; 3; 5; 33; 63 ]

let run_minic ?(selective = true) ?(input = "") source =
  let compiled = Compile.compile source in
  let machine = Machine.create ~input compiled.Compile.program in
  let config = { Pe_config.default with Pe_config.selective } in
  let result = Engine.run ~config machine in
  (machine, result)

(* shl x,1 must double x end-to-end, through fast segments and the
   hooked step alike. *)
let test_shift_end_to_end () =
  let source =
    "int main() { int x = getc(); print_int((x << 1) + (x << 5)); return 0; }"
  in
  (* x = 65: << 1 gives 130, << 5 gives 2080. A [land 62] mask would print
     65 + 2080 = 2145 (shift by 1 -> 0) or 130 + 1040 (shift by 5 -> 4). *)
  List.iter
    (fun selective ->
      let machine, result = run_minic ~selective ~input:"A" source in
      Alcotest.(check string)
        (Printf.sprintf "doubled (selective=%b)" selective)
        "2210" (Machine.output machine);
      Alcotest.(check string) "halted"
        (Engine.outcome_name `Halted)
        (Engine.outcome_name result.Engine.outcome))
    [ true; false ]

(* --- div-by-zero parity ------------------------------------------------------ *)

(* The fast tier checks the divisor *before* committing anything and defers
   the faulting instruction to the hooked step, so a division by zero
   must fault at the same retired-instruction count, with the same partial
   output, under both modes. *)
let test_div_by_zero_parity () =
  let source =
    "int main() { int d = getc(); print_int(7); print_int(100 / (d - 48));\n\
     return 0; }"
  in
  let m_off, r_off = run_minic ~selective:false ~input:"0" source in
  let m_on, r_on = run_minic ~selective:true ~input:"0" source in
  Alcotest.(check string) "faults"
    (Engine.outcome_name (`Faulted Cpu.Div_by_zero))
    (Engine.outcome_name r_off.Engine.outcome);
  Alcotest.(check string) "same outcome"
    (Engine.outcome_name r_off.Engine.outcome)
    (Engine.outcome_name r_on.Engine.outcome);
  Alcotest.(check int) "same insns" r_off.Engine.taken_insns
    r_on.Engine.taken_insns;
  Alcotest.(check int) "same cycles" r_off.Engine.taken_cycles
    r_on.Engine.taken_cycles;
  Alcotest.(check string) "same partial output" (Machine.output m_off)
    (Machine.output m_on)

(* --- fault-arm audits -------------------------------------------------------- *)

(* The hooked step must report a sandboxed syscall as [Ev_syscall]
   *without* executing it — the invariant that makes [Ev_exit] unreachable
   from NT-Path execution (the driver's [Exited] exit, which
   [Nt_path.termination_of_exit] degrades to an unsafe event rather than
   [assert false]). Every instruction runs on the hooked step here. *)
let test_sandboxed_syscall_reported_not_executed () =
  let compiled = Compile.compile "int main() { exit(3); return 0; }" in
  let machine = Machine.create compiled.Compile.program in
  let ctx = Machine.main_context machine in
  let sandbox =
    Context.make_sandbox ~path_id:1 ~line_limit:4 ~words_per_line:4
  in
  Context.enter_sandbox ctx sandbox;
  let hooks =
    {
      Fast_loop.tick = Fast_loop.no_tick;
      branch = ignore;
      syscall = (fun _ -> false);
    }
  in
  (match
     Fast_loop.drive
       (Fast_loop.make machine ctx (Coverage.create compiled.Compile.program))
       hooks ~selective:false ~spawning:false ~threshold:0 ~limit:1000
   with
   | Fast_loop.Unsafe Insn.Sys_exit -> ()
   | Fast_loop.Exited _ -> Alcotest.fail "sandboxed exit was executed"
   | Fast_loop.Limit -> Alcotest.fail "no syscall within 1000 steps"
   | _ -> Alcotest.fail "expected Ev_syscall Sys_exit")

(* A sandbox write returns false once the path dirties more lines than its
   line limit; the write is still buffered, never applied to memory. *)
let test_sandbox_overflow_arms () =
  let mem = Memory.create ~globals_words:256 ~heap_words:1024 ~stack_words:256 in
  let overlay = Context.make_sandbox ~path_id:1 ~line_limit:1 ~words_per_line:4 in
  let a0 = Memory.null_guard in
  let a1 = Memory.null_guard + 64 in
  Alcotest.(check bool) "first line fits" true
    (Context.sandbox_write overlay mem a0 11);
  Alcotest.(check bool) "second line overflows" false
    (Context.sandbox_write overlay mem a1 22);
  (* overlay writes are buffered: memory unchanged either way *)
  Alcotest.(check int) "memory untouched" 0 (Memory.read mem a0)

(* --- BTB fused operations ---------------------------------------------------- *)

let btb_ops_gen =
  QCheck.Gen.(list_size (int_bound 300) (pair (int_bound 40) bool))

let btb_state btb =
  let probes = List.init 41 (fun pc -> Btb.probe_counts btb pc) in
  (Btb.lookups btb, Btb.miss_count btb, Btb.valid_entries btb,
   Btb.saturated_entries btb, probes)

let prop_lookup_exercise_equiv =
  QCheck.Test.make ~name:"lookup_exercise = counts; exercise" ~count:100
    (QCheck.make btb_ops_gen) (fun ops ->
      let b1 = Btb.create ~entries:16 ~assoc:2 in
      let b2 = Btb.create ~entries:16 ~assoc:2 in
      List.iter
        (fun (pc, taken) ->
          ignore (Btb.counts b1 pc);
          Btb.exercise b1 pc ~taken;
          Btb.lookup_exercise b2 pc ~taken)
        ops;
      btb_state b1 = btb_state b2)

let prop_probe_exercise_equiv =
  QCheck.Test.make
    ~name:"probe_exercise = probe_counts, then lookup_exercise if rejected"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (frequency [ (4, int_bound 16); (1, return max_int) ])
           btb_ops_gen))
    (fun (threshold, ops) ->
      let b1 = Btb.create ~entries:16 ~assoc:2 in
      let b2 = Btb.create ~entries:16 ~assoc:2 in
      let reference btb pc ~taken =
        match Btb.probe_counts btb pc with
        | None -> true
        | Some (tc, ntc) ->
          let forced = if taken then ntc else tc in
          if forced < threshold then true
          else begin
            Btb.lookup_exercise btb pc ~taken;
            false
          end
      in
      List.for_all
        (fun (pc, taken) ->
          Btb.probe_exercise b1 pc ~taken ~threshold
          = reference b2 pc ~taken)
        ops
      && btb_state b1 = btb_state b2
      && (threshold <> max_int
         ||
         (* The deopt-at-every-branch setting the fast tier's branch arm
            relies on (forced cold edges inside NT-Paths, per-branch-action
            configurations): on a BTB warmed by [ops], hits and misses alike
            are candidates and the probe commits nothing. *)
         let b3 = Btb.create ~entries:16 ~assoc:2 in
         List.iter (fun (pc, taken) -> Btb.lookup_exercise b3 pc ~taken) ops;
         let before = btb_state b3 in
         List.for_all
           (fun (pc, taken) -> Btb.probe_exercise b3 pc ~taken ~threshold)
           ops
         && btb_state b3 = before))

(* --- selective/instrumented differential ------------------------------------- *)

(* Every observable of an engine run, bundled for structural comparison. *)
let observables machine (result : Engine.result) =
  ( Engine.outcome_name result.Engine.outcome,
    ( result.Engine.taken_insns,
      result.Engine.taken_branches,
      result.Engine.taken_stores,
      result.Engine.taken_cycles,
      result.Engine.total_cycles ),
    (result.Engine.spawns, result.Engine.skipped_spawns,
     result.Engine.profiled_overrides),
    ( Coverage.taken_edges result.Engine.coverage,
      Coverage.combined_edges result.Engine.coverage ),
    Report.entries machine.Machine.reports,
    Machine.output machine )

let run_traced ~selective ~config ~input compiled =
  let recorder = Recorder.create () in
  let machine = Machine.create ~input ~recorder compiled.Compile.program in
  let result = Engine.run ~config:{ config with Pe_config.selective } machine in
  ((machine, result), [ Recorder.dump recorder ])

(* One workload under one configuration: run fully instrumented and
   selectively, then demand identical observables — including the flight
   recorder's event stream. *)
let check_differential_compiled name ~config ~input compiled =
  let (m_off, r_off), dumps_off =
    run_traced ~selective:false ~config ~input compiled
  in
  let (m_on, r_on), dumps_on =
    run_traced ~selective:true ~config ~input compiled
  in
  Alcotest.(check bool)
    (name ^ ": observables identical")
    true
    (observables m_off r_off = observables m_on r_on);
  Alcotest.(check (list string))
    (name ^ ": recorder streams identical")
    (List.map Recorder.jsonl_of_dump dumps_off)
    (List.map Recorder.jsonl_of_dump dumps_on);
  (r_off, r_on)

let check_differential name ?detector ?bug ~config workload =
  check_differential_compiled name ~config
    ~input:workload.Workload.default_input
    (Workload.compile ?detector ?bug workload)

let test_differential_workloads () =
  let pt = Registry.print_tokens in
  let cfg = Workload.pe_config pt in
  (* Standard mode: the fast tier must both engage and deoptimize. *)
  let _, r_on = check_differential "standard" ~config:cfg pt in
  Alcotest.(check bool) "fast tier engaged" true (r_on.Engine.fast_insns > 0);
  Alcotest.(check bool) "fast tier deoptimized" true
    (r_on.Engine.fast_segments > 1);
  Alcotest.(check bool) "spawned" true (r_on.Engine.spawns > 0);
  (* Baseline and CMP modes. *)
  ignore
    (check_differential "baseline"
       ~config:{ cfg with Pe_config.mode = Pe_config.Baseline }
       pt);
  ignore
    (check_differential "cmp"
       ~config:(Workload.pe_config ~mode:Pe_config.Cmp pt)
       pt);
  (* A detector filing NT-Path reports. *)
  ignore
    (check_differential "ccured bug" ~detector:Codegen.Ccured ~bug:10
       ~config:(Workload.pe_config Registry.print_tokens2)
       Registry.print_tokens2)

(* Armed watchpoints no longer pin the drive: every iWatcher bug variant,
   in each mode, runs mostly on the fast tier, which stops only before a
   watch/unwatch or an access to a watched word — and the selective run
   stays identical to the instrumented one, reports and recorder stream
   included. *)
let test_differential_iwatcher () =
  let variants =
    List.concat_map
      (fun (w : Workload.t) ->
        List.filter_map
          (fun (bug : Bug.t) ->
            if Bug.detectable_by bug Codegen.Iwatcher then Some (w, bug)
            else None)
          w.Workload.bugs)
      Registry.buggy_apps
  in
  Alcotest.(check bool) "iWatcher variants found" true (variants <> []);
  List.iter
    (fun ((w : Workload.t), (bug : Bug.t)) ->
      List.iter
        (fun mode ->
          let name =
            Printf.sprintf "%s iwatcher %s" bug.Bug.id (Pe_config.mode_name mode)
          in
          let _, r_on =
            check_differential name ~detector:Codegen.Iwatcher
              ~bug:bug.Bug.version ~config:(Workload.pe_config ~mode w) w
          in
          Alcotest.(check bool)
            (name ^ ": fast tier retires >= 90% of the taken path")
            true
            (10 * r_on.Engine.fast_insns >= 9 * r_on.Engine.taken_insns))
        [ Pe_config.Baseline; Pe_config.Standard; Pe_config.Cmp ])
    variants

(* The per-branch-action configurations deoptimize at *every* branch
   (threshold = max_int) instead of disabling the fast tier; each must stay
   bit-for-bit equivalent — including the RNG draw sequence. *)
let test_differential_per_branch_configs () =
  let pt = Registry.print_tokens in
  let cfg = Workload.pe_config pt in
  ignore
    (check_differential "random spawning"
       ~config:
         { cfg with Pe_config.random_spawn_chance = 0.25; random_seed = 7 }
       pt);
  ignore
    (check_differential "spawn everywhere"
       ~config:{ cfg with Pe_config.spawn_everywhere = true }
       pt);
  ignore
    (check_differential "profiled fixing"
       ~config:{ cfg with Pe_config.profiled_fixing = true }
       pt);
  ignore
    (check_differential "follow-nontaken ablation"
       ~config:{ cfg with Pe_config.follow_nontaken_in_nt = true }
       pt);
  (* A zero reset interval resets the counters before every instruction:
     no segment fits between two ticks, so the drive steps. *)
  ignore
    (check_differential "counter reset every instruction"
       ~config:{ cfg with Pe_config.counter_reset_interval = 0 }
       pt)

(* An NT-Path store that overflows the L1 buffer retires in place (stats and
   latency charged, pc left on the store) before the path terminates, on a
   fast segment exactly as on the hooked step. *)
let test_differential_cache_overflow () =
  let compiled = Compile.compile Test_more.l1_overflow_source in
  let r_off, r_on =
    check_differential_compiled "L1 overflow"
      ~config:Test_more.l1_overflow_config ~input:"" compiled
  in
  Alcotest.(check bool)
    "NT-Path records identical" true
    (r_off.Engine.nt_records = r_on.Engine.nt_records);
  Alcotest.(check bool)
    "an NT-Path overflowed with selective on" true
    (List.exists
       (fun (r : Nt_path.record) ->
         r.Nt_path.termination = Nt_path.T_cache_overflow)
       r_on.Engine.nt_records)

(* --- software-engine differential --------------------------------------- *)

(* Every observable of a software-PathExpander run except memory: outcome,
   spawns, every NT-Path record, the cost accounting, the coverage bitmaps,
   the reports with their [insn_index] provenance and the output. *)
let soft_observables machine (r : Soft_engine.result) =
  let cov = r.Soft_engine.coverage in
  let bits pc =
    ( Coverage.covered_taken_edge cov pc false,
      Coverage.covered_taken_edge cov pc true,
      Coverage.covered_nt_edge cov pc false,
      Coverage.covered_nt_edge cov pc true,
      Coverage.pc_line_covered cov pc )
  in
  ( ( Engine.outcome_name r.Soft_engine.outcome,
      r.Soft_engine.spawns,
      r.Soft_engine.nt_records,
      r.Soft_engine.accounting ),
    ( List.init (Array.length machine.Machine.dcode) bits,
      Coverage.stmt_taken_pct cov,
      Coverage.stmt_combined_pct cov ),
    Report.entries machine.Machine.reports,
    Machine.output machine )

(* One software run with selective on and one with it off: every observable
   and every word of the final memory identical. Returns the selective
   run's outcome. *)
let check_soft_differential name ?fuel ?detector ?bug workload =
  let compiled = Workload.compile ?detector ?bug workload in
  let run selective =
    let machine =
      Machine.create ~input:workload.Workload.default_input
        compiled.Compile.program
    in
    let config = { (Workload.pe_config workload) with Pe_config.selective } in
    (machine, Soft_engine.run ~config ?fuel machine)
  in
  let m_off, r_off = run false in
  let m_on, r_on = run true in
  Alcotest.(check bool)
    (name ^ ": observables identical")
    true
    (soft_observables m_off r_off = soft_observables m_on r_on);
  let mem_off = m_off.Machine.mem and mem_on = m_on.Machine.mem in
  let differences = ref 0 in
  for addr = Memory.null_guard to Memory.size mem_off - 1 do
    if Memory.read mem_off addr <> Memory.read mem_on addr then incr differences
  done;
  Alcotest.(check int) (name ^ ": final memory identical") 0 !differences;
  r_on.Soft_engine.outcome

(* The software engine drives its taken path (every branch deoptimizes for
   the history) and its write-log NT-Paths through the same driver; each
   must match the hooked step on every perf workload, with detector
   reports filed from both (CCured), under armed watchpoints
   (iWatcher: segments stop before each watched access) and when the fuel
   clamp ends the run mid-program. *)
let test_soft_differential () =
  List.iter
    (fun (w : Workload.t) ->
      ignore (check_soft_differential w.Workload.name w);
      Alcotest.(check string)
        (w.Workload.name ^ ": fuel clamp")
        "fuel-exhausted"
        (Engine.outcome_name
           (check_soft_differential (w.Workload.name ^ " fuel 5000")
              ~fuel:5_000 w)))
    Registry.perf_apps;
  ignore
    (check_soft_differential "ccured bug" ~detector:Codegen.Ccured ~bug:10
       Registry.print_tokens2);
  ignore
    (check_soft_differential "iwatcher bug" ~detector:Codegen.Iwatcher ~bug:10
       Registry.print_tokens2)

(* --- random-program differential --------------------------------------------- *)

(* Small MiniC programs with data-dependent and cold branches, shifts and
   guarded divisions: enough structure to exercise spawns, deoptimizations
   and the ALU paths the shift fix touched. *)
type clause = { mul : int; modulus : int; bound : int; shift : int }

let clause_src i cl =
  Printf.sprintf
    "    if ((i * %d) %% %d < %d) { acc = acc + ((i << %d) - (acc >> 1)); }\n\
    \    else { acc = acc - (i %% %d) - %d; }\n\
    \    if (acc %% 97 == %d) { acc = acc + 1000 / (1 + (i %% 7)); }\n"
    cl.mul cl.modulus cl.bound cl.shift cl.modulus (i + 1)
    ((cl.mul + cl.bound) mod 97)

let program_src (iters, clauses) =
  Printf.sprintf
    "int acc = 0;\n\
     int main() {\n\
    \  int i;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
     %s\
    \  }\n\
    \  print_int(acc);\n\
    \  return 0;\n\
     }\n"
    iters
    (String.concat "" (List.mapi clause_src clauses))

let clause_gen =
  QCheck.Gen.(
    map
      (fun (mul, modulus, bound, shift) ->
        { mul = 1 + mul; modulus = 2 + modulus; bound; shift })
      (quad (int_bound 6) (int_bound 7) (int_bound 9) (int_bound 5)))

let program_gen =
  QCheck.Gen.(pair (map (fun n -> 2 + n) (int_bound 18))
                (list_size (map (fun n -> 1 + n) (int_bound 3)) clause_gen))

(* Every optimization level: -O2's register-homed code exercises the fast
   tier on different instruction mixes than -O0's stack traffic. *)
let prop_random_program_differential =
  QCheck.Test.make ~name:"random programs: selective = instrumented" ~count:25
    (QCheck.make
       ~print:(fun (level, params) ->
         Printf.sprintf "-%s\n%s" (Opt.to_string level) (program_src params))
       QCheck.Gen.(pair (oneofl [ Opt.O0; Opt.O1; Opt.O2 ]) program_gen))
    (fun (level, params) ->
      let source = program_src params in
      let compiled = Compile.compile ~level source in
      let run selective =
        let machine = Machine.create compiled.Compile.program in
        let config = { Pe_config.default with Pe_config.selective } in
        let result = Engine.run ~config machine in
        observables machine result
      in
      run false = run true)

(* --- DIDUCE on the fast tier ------------------------------------------------ *)

(* ext3's train-then-monitor flow. The store hook carries the globals
   range, so the fast tier stops only before a store into it: violations
   must be identical with the fast tier on and off, and the monitored run
   must stay on the fast tier. Returns the violations and the monitored
   run's fast-tier fraction (taken and NT instructions). *)
let diduce_flow ~selective ?bug (w : Workload.t) =
  let compiled = Workload.compile ?bug w in
  let program = compiled.Compile.program in
  let detector = Diduce.create program in
  let run config =
    let machine = Machine.create ~input:w.Workload.default_input program in
    Diduce.attach detector machine;
    ignore (Engine.run ~config:{ config with Pe_config.selective } machine);
    machine
  in
  ignore (run Pe_config.baseline);
  Diduce.start_monitoring detector;
  let c = Telemetry.counter (run (Workload.pe_config w)).Machine.telemetry in
  let fast = c "selective.fast_insns" + c "nt.fast_insns" in
  let insns = c "taken.insns" + c "nt.insns" in
  (Diduce.violations detector, float_of_int fast /. float_of_int insns)

let test_diduce_selective () =
  let seen = ref 0 in
  List.iter
    (fun ((w : Workload.t), bug) ->
      let name =
        w.Workload.name
        ^ match bug with Some v -> Printf.sprintf " v%d" v | None -> ""
      in
      let off, _ = diduce_flow ~selective:false ?bug w in
      let on, fraction = diduce_flow ~selective:true ?bug w in
      let key (v : Diduce.violation) =
        (v.Diduce.addr, v.Diduce.surprise, v.Diduce.on_nt_path)
      in
      Alcotest.(check (list (triple int int bool)))
        (name ^ ": violations") (List.map key off) (List.map key on);
      Alcotest.(check bool)
        (Printf.sprintf "%s: fast-tier fraction %.4f > 0.95" name fraction)
        true (fraction > 0.95);
      seen := !seen + List.length on)
    [
      (Registry.schedule, None);
      (Registry.schedule, Some 6);
      (Registry.schedule2, None);
      (Registry.print_tokens2, None);
    ];
  Alcotest.(check bool) "some violation observed" true (!seen > 0)

(* With [sp] moved into the globals, a push and a call store there too:
   the hook must see them exactly as the hooked step alone does. A hook
   checked only by the store arm would miss both. The store outside the
   range runs on the fast tier. *)
let test_store_hook_push_call () =
  let g = Program.null_guard_words in
  let t0 = Reg.tmp 0 in
  let program =
    {
      Program.code =
        [|
          Insn.Li (Reg.sp, g + 8);
          Insn.Li (t0, 5);
          Insn.Push t0;
          Insn.Call 6;
          Insn.Store (t0, Reg.zero, g + 40);
          Insn.Halt;
          Insn.Li (t0, 7);
          Insn.Store (t0, Reg.zero, g + 1);
          Insn.Ret;
        |];
      entry = 0;
      globals_words = 8;
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
  in
  let observed selective =
    let machine = Machine.create program in
    let seen = ref [] in
    machine.Machine.store_hook <-
      Some
        {
          Machine.lo = g;
          hi = g + 8;
          observe = (fun _ addr value -> seen := (addr, value) :: !seen);
        };
    let r =
      Engine.run ~config:{ Pe_config.baseline with Pe_config.selective } machine
    in
    Alcotest.(check string) "halts" "halted" (Engine.outcome_name r.Engine.outcome);
    (List.rev !seen, r.Engine.fast_insns)
  in
  let expected = [ (g + 7, 5); (g + 6, 4); (g + 1, 7) ] in
  let off, _ = observed false in
  let on, fast = observed true in
  Alcotest.(check (list (pair int int))) "hooked step" expected off;
  Alcotest.(check (list (pair int int))) "fast tier" expected on;
  Alcotest.(check bool) "unhooked instructions ran fast" true (fast > 0)

let tests =
  [
    Alcotest.test_case "shift amounts are masked to 63, not 62" `Quick
      test_shift_mask;
    Alcotest.test_case "shl doubles end-to-end on both tiers" `Quick
      test_shift_end_to_end;
    Alcotest.test_case "div-by-zero faults identically on both tiers" `Quick
      test_div_by_zero_parity;
    Alcotest.test_case "sandboxed syscall is reported, not executed" `Quick
      test_sandboxed_syscall_reported_not_executed;
    Alcotest.test_case "only overlay sandbox writes can overflow" `Quick
      test_sandbox_overflow_arms;
    QCheck_alcotest.to_alcotest prop_lookup_exercise_equiv;
    QCheck_alcotest.to_alcotest prop_probe_exercise_equiv;
    Alcotest.test_case "workload differential: all observables identical"
      `Quick test_differential_workloads;
    Alcotest.test_case "iWatcher variants: fast tier under watchpoints" `Quick
      test_differential_iwatcher;
    Alcotest.test_case "per-branch-action configs stay equivalent" `Quick
      test_differential_per_branch_configs;
    Alcotest.test_case "L1-overflow NT-Paths stay equivalent" `Quick
      test_differential_cache_overflow;
    Alcotest.test_case "software engine: selective = instrumented" `Quick
      test_soft_differential;
    QCheck_alcotest.to_alcotest prop_random_program_differential;
    Alcotest.test_case "DIDUCE: violations identical, fast tier kept" `Quick
      test_diduce_selective;
    Alcotest.test_case "store hook sees push and call into its range" `Quick
      test_store_hook_push_call;
  ]
