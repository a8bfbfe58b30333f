(* Fast-tier tests: the shift-mask regression, fault-arm audits,
   div-by-zero parity, BTB fused-operation equivalence, and the house
   invariant — every observable of a drive is identical to the same drive
   with every instruction on the hooked step. The hooked-step side is
   pinned by the zero-budget tick, a [tick] that returns the current
   retired count, so the comparison needs no production switch. It runs
   every registry workload under every detector, the iWatcher bug
   variants, DIDUCE's store hook, an L1-overflowing NT-Path, each of the
   driver's branch settings and random MiniC programs. The engine-level
   tests keep their single-run assertions: the fast tier engages,
   deoptimizes and retires its share. *)

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

(* --- the drive differential ------------------------------------------------ *)

let fuel = 100_000_000

(* How the test's engine (below) drives a program. *)
type setting = {
  spawning : bool;  (* taken-path branches may spawn: the BTB is consulted *)
  threshold : int;
      (* a branch whose forced-edge count is below it spawns; [max_int]
         makes every branch a candidate, as the per-branch-action
         configurations do *)
  max_spawns : int;
  nt_limit : int;  (* NT-Path length *)
  nt_lines : int option;  (* NT-Path line budget; [None]: the L1's lines *)
  nt_forcing : bool;
      (* NT-Path branches force a cold edge (the follow-nontaken ablation) *)
}

let standard =
  {
    spawning = true;
    threshold = 5;
    max_spawns = 60;
    nt_limit = 1000;
    nt_lines = None;
    nt_forcing = false;
  }

let baseline = { standard with spawning = false }

let exit_name = function
  | Fast_loop.Limit -> "limit"
  | Fast_loop.Exited n -> Printf.sprintf "exited(%d)" n
  | Fast_loop.Halted -> "halted"
  | Fast_loop.Fault f -> "faulted: " ^ Cpu.fault_to_string f
  | Fast_loop.Overflow -> "overflow"
  | Fast_loop.Unsafe sys -> "unsafe " ^ Insn.sys_name sys

let stats (s : Context.stats) =
  Context.(s.insns, s.cycles, s.loads, s.stores, s.branches)

let cache_state c =
  ( Cache.snapshot_canonical c,
    (Cache.hits c, Cache.misses c, Cache.memo_hits c, Cache.filter_hits c) )

(* One run's observables, for structural comparison. *)
type observed = {
  exit : string;
  taken : int * int * int * int * int;  (* the taken path's final stats *)
  paths : (string * (int * int * int * int * int) * int) list;
      (* per NT-Path: exit, final stats, lines squashed *)
  caches : ((int * bool * int * int) array * (int * int * int * int)) list;
      (* the primary L1 and the L2: canonical lines, then hits, misses,
         memo hits and filter hits *)
  btb : int * int * (int * int) option list;
  coverage : (bool * bool * bool * bool * bool) list;  (* per pc *)
  reports : Report.entry list;  (* [insn_index] and [cycle] included *)
  output : string;
  insn_index : int;
}

(* A run of [program] through the driver by a small engine of the test's
   own: the taken path, and at each spawn candidate the branch hook sees
   an NT-Path on the non-taken edge, in a sandboxed context of its own.
   Its hooks do what the engine's do: the taken path's record coverage,
   count and exercise the BTB and spawn below [threshold]; an NT-Path's
   record NT coverage and decline syscalls. With [pinned], every drive
   gets the zero-budget tick. [attach] sees the machine first (a store
   hook). Returns the observables and the taken path's fast-tier
   instructions. *)
let drive_run ~pinned ?(setting = standard) ?(attach = ignore) ~input program =
  let machine = Machine.create ~input program in
  attach machine;
  let btb = machine.Machine.btb and mconfig = machine.Machine.config in
  let ctx = Machine.main_context machine in
  let l1 = ctx.Context.l1 in
  let coverage = Coverage.create program in
  let tick c =
    if pinned then fun () -> c.Context.stats.Context.insns
    else Fast_loop.no_tick
  in
  let nt = Context.create ~l1 ~pc:0 ~sp:0 in
  let sandbox =
    Context.make_sandbox ~path_id:1
      ~line_limit:
        (Option.value setting.nt_lines
           ~default:(Machine_config.l1_lines mconfig))
      ~words_per_line:(Machine_config.words_per_line mconfig)
  in
  let nt_branch () =
    let br_pc = nt.Context.br_pc and taken = nt.Context.br_taken in
    let forced =
      setting.nt_forcing
      &&
      let tc, ntc = Btb.counts btb br_pc in
      (if taken then ntc else tc) < setting.threshold
    in
    if forced then
      nt.Context.pc <- (if taken then br_pc + 1 else nt.Context.br_target);
    Coverage.record_nt coverage br_pc (taken <> forced)
  in
  let nt_fl = Fast_loop.make machine nt coverage in
  let nt_hooks =
    { Fast_loop.tick = tick nt; branch = nt_branch; syscall = (fun _ -> false) }
  in
  let paths = ref [] and spawns = ref 0 in
  let spawn ~br_pc ~taken =
    incr spawns;
    let path_id = ((!spawns - 1) mod 255) + 1 in
    Context.reset_for_spawn nt ~l1
      ~pc:(if taken then br_pc + 1 else ctx.Context.br_target);
    Array.blit ctx.Context.regs 0 nt.Context.regs 0 Reg.count;
    Context.reset_sandbox sandbox ~path_id;
    Context.set_spawn_info sandbox ~br_pc ~edge:(not taken);
    Context.enter_sandbox nt sandbox;
    nt.Context.pred <- true;
    Coverage.record_nt coverage br_pc (not taken);
    let exit =
      Fast_loop.drive nt_fl nt_hooks ~spawning:setting.nt_forcing
        ~threshold:max_int ~limit:setting.nt_limit
    in
    Context.undo_watches sandbox machine.Machine.watch;
    let squashed = Cache.gang_invalidate l1 ~owner:path_id in
    paths := (exit_name exit, stats nt.Context.stats, squashed) :: !paths
  in
  let branch () =
    let br_pc = ctx.Context.br_pc and taken = ctx.Context.br_taken in
    Coverage.record_taken coverage br_pc taken;
    if setting.spawning then begin
      let tc, ntc = Btb.counts btb br_pc in
      Btb.exercise btb br_pc ~taken;
      if (if taken then ntc else tc) < setting.threshold then begin
        Btb.exercise btb br_pc ~taken:(not taken);
        if !spawns < setting.max_spawns then spawn ~br_pc ~taken
      end
    end
  in
  let fl = Fast_loop.make machine ctx coverage in
  let exit =
    Fast_loop.drive fl
      { Fast_loop.tick = tick ctx; branch; syscall = (fun _ -> true) }
      ~spawning:setting.spawning ~threshold:setting.threshold ~limit:fuel
  in
  let code_len = Program.length machine.Machine.program in
  let bits pc =
    ( Coverage.covered_taken_edge coverage pc false,
      Coverage.covered_taken_edge coverage pc true,
      Coverage.covered_nt_edge coverage pc false,
      Coverage.covered_nt_edge coverage pc true,
      Coverage.pc_line_covered coverage pc )
  in
  ( {
      exit = exit_name exit;
      taken = stats ctx.Context.stats;
      paths = List.rev !paths;
      caches = [ cache_state l1; cache_state machine.Machine.l2 ];
      btb =
        ( Btb.lookups btb,
          Btb.miss_count btb,
          List.init code_len (Btb.probe_counts btb) );
      coverage = List.init code_len bits;
      reports = Report.entries machine.Machine.reports;
      output = Machine.output machine;
      insn_index = machine.Machine.insn_index;
    },
    Fast_loop.fast_insns fl )

(* The differential: the run on the fast tier and the run with every
   instruction on the hooked step must be observably identical, field by
   field. Returns the fast run's observables and fast-tier count. *)
let check_drive name ?setting ?attach ~input program =
  let slow, pinned_fast = drive_run ~pinned:true ?setting ?attach ~input program in
  let fast, fast_insns = drive_run ~pinned:false ?setting ?attach ~input program in
  Alcotest.(check int) (name ^ ": the pinned drive ran no segment") 0 pinned_fast;
  let same what a b =
    if a <> b then Alcotest.failf "%s: %s differ on the fast tier" name what
  in
  same "exits" slow.exit fast.exit;
  same "taken-path stats" slow.taken fast.taken;
  same "NT-Paths" slow.paths fast.paths;
  same "caches" slow.caches fast.caches;
  same "BTBs" slow.btb fast.btb;
  same "coverage bitmaps" slow.coverage fast.coverage;
  same "reports" slow.reports fast.reports;
  same "outputs" slow.output fast.output;
  same "instruction indices" slow.insn_index fast.insn_index;
  (fast, fast_insns)

let check_drive_workload name ?setting ?attach ?detector ?bug
    (w : Workload.t) =
  check_drive name ?setting ?attach ~input:w.Workload.default_input
    (Workload.compile ?detector ?bug w).Compile.program

(* shl x,1 must double x end-to-end, through fast segments and the
   hooked step alike. *)
let test_shift_end_to_end () =
  let source =
    "int main() { int x = getc(); print_int((x << 1) + (x << 5)); return 0; }"
  in
  (* x = 65: << 1 gives 130, << 5 gives 2080. A [land 62] mask would print
     65 + 2080 = 2145 (shift by 1 -> 0) or 130 + 1040 (shift by 5 -> 4). *)
  let program = (Compile.compile source).Compile.program in
  List.iter
    (fun pinned ->
      let o, _ = drive_run ~pinned ~input:"A" program in
      Alcotest.(check string)
        (Printf.sprintf "doubled (pinned=%b)" pinned)
        "2210" o.output;
      Alcotest.(check string) "halted" "halted" o.exit)
    [ false; true ]

(* --- div-by-zero parity ------------------------------------------------------ *)

(* The fast tier checks the divisor *before* committing anything and defers
   the faulting instruction to the hooked step, so a division by zero
   must fault at the same retired-instruction count, with the same partial
   output, on either. *)
let test_div_by_zero_parity () =
  let source =
    "int main() { int d = getc(); print_int(7); print_int(100 / (d - 48));\n\
     return 0; }"
  in
  let o, _ =
    check_drive "div by zero" ~input:"0" (Compile.compile source).Compile.program
  in
  Alcotest.(check string) "faults"
    ("faulted: " ^ Cpu.fault_to_string Cpu.Div_by_zero)
    o.exit;
  Alcotest.(check string) "partial output" "7" o.output

(* --- fault-arm audits -------------------------------------------------------- *)

(* The hooked step must report a sandboxed syscall as [Ev_syscall]
   *without* executing it — the invariant that makes [Ev_exit] unreachable
   from NT-Path execution (the driver's [Exited] exit, which
   [Nt_path.termination_of_exit] degrades to an unsafe event rather than
   [assert false]). The zero-budget tick runs every instruction on the
   hooked step here. *)
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
      Fast_loop.tick = (fun () -> ctx.Context.stats.Context.insns);
      branch = ignore;
      syscall = (fun _ -> false);
    }
  in
  (match
     Fast_loop.drive
       (Fast_loop.make machine ctx (Coverage.create compiled.Compile.program))
       hooks ~spawning:false ~threshold:0 ~limit:1000
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

(* --- engine runs and drive differentials ------------------------------------ *)

let detectors =
  [ Codegen.No_detector; Codegen.Ccured; Codegen.Iwatcher; Codegen.Assertions ]

(* Every registry workload under every detector, on its first bug version
   where it has one: the drive differential. Then the engine itself, in
   standard mode: the fast tier must both engage and deoptimize. *)
let test_differential_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      let bug =
        match w.Workload.bugs with b :: _ -> Some b.Bug.version | [] -> None
      in
      List.iter
        (fun detector ->
          ignore
            (check_drive_workload
               (Printf.sprintf "%s/%s" w.Workload.name
                  (Codegen.detector_name detector))
               ~detector ?bug w))
        detectors)
    Registry.all;
  let pt = Registry.print_tokens in
  let machine = Machine.create ~input:pt.Workload.default_input
      (Workload.compile pt).Compile.program in
  let r = Engine.run ~config:(Workload.pe_config pt) machine in
  Alcotest.(check bool) "fast tier engaged" true (r.Engine.fast_insns > 0);
  Alcotest.(check bool) "fast tier deoptimized" true
    (r.Engine.fast_segments > 1);
  Alcotest.(check bool) "spawned" true (r.Engine.spawns > 0)

(* Armed watchpoints do not pin the drive: every iWatcher bug variant, in
   each mode, runs mostly on the fast tier, which stops only before a
   watch/unwatch or an access to a watched word; and the drive
   differential holds on each variant, reports and their cycles
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
      let compiled =
        Workload.compile ~detector:Codegen.Iwatcher ~bug:bug.Bug.version w
      in
      ignore
        (check_drive (bug.Bug.id ^ " iwatcher") ~input:w.Workload.default_input
           compiled.Compile.program);
      List.iter
        (fun mode ->
          let name =
            Printf.sprintf "%s iwatcher %s" bug.Bug.id (Pe_config.mode_name mode)
          in
          let machine =
            Machine.create ~input:w.Workload.default_input
              compiled.Compile.program
          in
          let r = Engine.run ~config:(Workload.pe_config ~mode w) machine in
          Alcotest.(check bool)
            (name ^ ": fast tier retires >= 90% of the taken path")
            true
            (10 * r.Engine.fast_insns >= 9 * r.Engine.taken_insns))
        [ Pe_config.Baseline; Pe_config.Standard; Pe_config.Cmp ])
    variants

(* The per-branch-action configurations (random spawning, spawn
   everywhere, profiled fixing) stop at every branch (threshold =
   max_int) instead of disabling the fast tier, and the follow-nontaken
   ablation forces cold edges inside NT-Paths: the drive differential on
   each of those settings and on a baseline drive. The engine runs each
   configuration deterministically on the fast tier; a zero counter-reset
   interval is the engine's zero-budget tick and runs none of it there. *)
let test_differential_per_branch_configs () =
  let pt = Registry.print_tokens in
  List.iter
    (fun (name, setting) -> ignore (check_drive_workload name ~setting pt))
    [
      ("every branch a candidate", { standard with threshold = max_int });
      ("baseline", baseline);
      ("forced cold edges in NT-Paths", { standard with nt_forcing = true });
    ];
  let program = (Workload.compile pt).Compile.program in
  let run config =
    let machine = Machine.create ~input:pt.Workload.default_input program in
    let r = Engine.run ~config machine in
    ( r.Engine.fast_insns,
      ( Engine.outcome_name r.Engine.outcome,
        (r.Engine.taken_insns, r.Engine.total_cycles, r.Engine.spawns),
        r.Engine.nt_records,
        Report.entries machine.Machine.reports,
        Machine.output machine ) )
  in
  let cfg = Workload.pe_config pt in
  List.iter
    (fun (name, config, fast) ->
      let fast_insns, first = run config in
      let _, second = run config in
      Alcotest.(check bool) (name ^ ": deterministic") true (first = second);
      Alcotest.(check bool) (name ^ ": fast tier as expected") fast
        (fast_insns > 0))
    [
      ( "random spawning",
        { cfg with Pe_config.random_spawn_chance = 0.25; random_seed = 7 },
        true );
      ("spawn everywhere", { cfg with Pe_config.spawn_everywhere = true }, true);
      ("profiled fixing", { cfg with Pe_config.profiled_fixing = true }, true);
      ( "follow-nontaken ablation",
        { cfg with Pe_config.follow_nontaken_in_nt = true },
        true );
      ( "counter reset every instruction",
        { cfg with Pe_config.counter_reset_interval = 0 },
        false );
    ]

(* An NT-Path store that overflows the L1 buffer retires in place (stats and
   latency charged, pc left on the store) before the path terminates, on a
   fast segment exactly as on the hooked step. *)
let test_differential_cache_overflow () =
  let program = (Compile.compile Test_more.l1_overflow_source).Compile.program in
  let o, _ =
    check_drive "L1 overflow" ~setting:{ standard with nt_limit = 1_000_000 }
      ~input:"" program
  in
  Alcotest.(check bool) "a drive's NT-Path overflowed" true
    (List.exists (fun (exit, _, _) -> exit = "overflow") o.paths);
  let machine = Machine.create program in
  let r = Engine.run ~config:Test_more.l1_overflow_config machine in
  Alcotest.(check bool)
    "an engine NT-Path overflowed" true
    (List.exists
       (fun (r : Nt_path.record) ->
         r.Nt_path.termination = Nt_path.T_cache_overflow)
       r.Engine.nt_records)

(* --- software engine ------------------------------------------------------- *)

(* The software engine drives its taken path with every branch stopping
   for the history, and its NT-Paths with no L1 buffer to overflow. The
   drive differential in that shape on every perf workload and on two bug
   variants (CCured reports, iWatcher watchpoints); then the engine itself
   must spawn and file reports, and its fuel clamp must end a run
   mid-program. *)
let test_soft_differential () =
  let shape (w : Workload.t) =
    {
      standard with
      threshold = max_int;
      nt_limit = (Workload.pe_config w).Pe_config.max_nt_path_length;
      nt_lines = Some max_int;
    }
  in
  let soft ?fuel ?detector ?bug (w : Workload.t) =
    let compiled = Workload.compile ?detector ?bug w in
    let machine =
      Machine.create ~input:w.Workload.default_input compiled.Compile.program
    in
    (machine, Soft_engine.run ~config:(Workload.pe_config w) ?fuel machine)
  in
  List.iter
    (fun (w : Workload.t) ->
      ignore (check_drive_workload w.Workload.name ~setting:(shape w) w);
      let _, r = soft w in
      Alcotest.(check bool) (w.Workload.name ^ ": spawned") true
        (r.Soft_engine.spawns > 0);
      let _, r = soft ~fuel:5_000 w in
      Alcotest.(check string)
        (w.Workload.name ^ ": fuel clamp")
        "fuel-exhausted"
        (Engine.outcome_name r.Soft_engine.outcome))
    Registry.perf_apps;
  let pt2 = Registry.print_tokens2 in
  List.iter
    (fun detector ->
      let name = "bug 10 " ^ Codegen.detector_name detector in
      ignore
        (check_drive_workload name ~setting:(shape pt2) ~detector ~bug:10 pt2);
      let machine, _ = soft ~detector ~bug:10 pt2 in
      Alcotest.(check bool) (name ^ ": reported") true
        (Report.count machine.Machine.reports > 0))
    [ Codegen.Ccured; Codegen.Iwatcher ]

(* --- random-program differential --------------------------------------------- *)

(* test_passes' random MiniC programs (data-dependent and cold branches,
   shifts, guarded divisions, a helper call) at every optimization level:
   -O2's register-homed code drives the fast tier through different
   instruction mixes than -O0's stack traffic. *)
let prop_random_program_differential =
  QCheck.Test.make ~name:"random programs: selective = instrumented" ~count:25
    (QCheck.make
       ~print:(fun (level, params) ->
         Printf.sprintf "-%s\n%s" (Opt.to_string level)
           (Test_passes.program_src params))
       QCheck.Gen.(
         pair (oneofl [ Opt.O0; Opt.O1; Opt.O2 ]) Test_passes.program_gen))
    (fun (level, params) ->
      let source = Test_passes.program_src params in
      ignore
        (check_drive "random program" ~input:""
           (Compile.compile ~level source).Compile.program);
      true)

(* --- DIDUCE on the fast tier ------------------------------------------------ *)

(* ext3's train-then-monitor flow. The store hook carries the globals
   range, so the fast tier stops only before a store into it. The engine's
   monitored run must stay on the fast tier; a monitored drive must find
   the same violations on the fast tier as on the hooked step. *)
let diduce_trained ?bug (w : Workload.t) =
  let program = (Workload.compile ?bug w).Compile.program in
  let detector = Diduce.create program in
  let machine = Machine.create ~input:w.Workload.default_input program in
  Diduce.attach detector machine;
  ignore (Engine.run ~config:Pe_config.baseline machine);
  Diduce.start_monitoring detector;
  (program, detector)

let test_diduce_selective () =
  let seen = ref 0 in
  List.iter
    (fun ((w : Workload.t), bug) ->
      let name =
        w.Workload.name
        ^ match bug with Some v -> Printf.sprintf " v%d" v | None -> ""
      in
      let program, detector = diduce_trained ?bug w in
      let machine = Machine.create ~input:w.Workload.default_input program in
      Diduce.attach detector machine;
      ignore (Engine.run ~config:(Workload.pe_config w) machine);
      let c = Telemetry.counter machine.Machine.telemetry in
      let fraction =
        float_of_int (c "selective.fast_insns" + c "nt.fast_insns")
        /. float_of_int (c "taken.insns" + c "nt.insns")
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fast-tier fraction %.4f > 0.95" name fraction)
        true (fraction > 0.95);
      (* Each drive of the differential monitors with a freshly trained
         detector: the pinned drive's first, the fast drive's second. *)
      let monitors = ref [] in
      let attach machine =
        let _, detector = diduce_trained ?bug w in
        monitors := detector :: !monitors;
        Diduce.attach detector machine
      in
      ignore (check_drive name ~attach ~input:w.Workload.default_input program);
      let violations detector =
        List.map
          (fun (v : Diduce.violation) ->
            (v.Diduce.addr, v.Diduce.surprise, v.Diduce.on_nt_path))
          (Diduce.violations detector)
      in
      match !monitors with
      | [ fast; slow ] ->
        Alcotest.(check (list (triple int int bool)))
          (name ^ ": violations") (violations slow) (violations fast);
        seen := !seen + List.length (violations fast)
      | _ -> Alcotest.fail "expected two monitored drives")
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
    Program.make ~globals_words:8
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
      |]
  in
  let expected = [ (g + 7, 5); (g + 6, 4); (g + 1, 7) ] in
  let attach seen machine =
    machine.Machine.store_hook <-
      Some
        {
          Machine.lo = g;
          hi = g + 8;
          observe = (fun _ addr value -> seen := (addr, value) :: !seen);
        }
  in
  List.iter
    (fun pinned ->
      let seen = ref [] in
      let o, fast =
        drive_run ~pinned ~setting:baseline ~attach:(attach seen) ~input:""
          program
      in
      Alcotest.(check string) "halts" "halted" o.exit;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "hooked (pinned=%b)" pinned)
        expected (List.rev !seen);
      Alcotest.(check bool) "unhooked instructions ran fast" (not pinned)
        (fast > 0))
    [ true; false ]

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
