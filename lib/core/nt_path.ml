type termination =
  | T_max_length
  | T_crash of Cpu.fault
  | T_unsafe of Insn.sys
  | T_program_end
  | T_cache_overflow

type record = {
  spawn_br_pc : int;
  forced_direction : bool;
  entry_pc : int;
  insns : int;
  cycles : int;
  stores : int;
  branches : int;
  squashed_lines : int;
  termination : termination;
}

let termination_name = function
  | T_max_length -> "max-length"
  | T_crash _ -> "crash"
  | T_unsafe _ -> "unsafe-event"
  | T_program_end -> "program-end"
  | T_cache_overflow -> "cache-overflow"

let is_crash record =
  match record.termination with
  | T_crash _ -> true
  | T_max_length | T_unsafe _ | T_program_end | T_cache_overflow -> false

let is_unsafe record =
  match record.termination with
  | T_unsafe _ -> true
  | T_max_length | T_crash _ | T_program_end | T_cache_overflow -> false

(* Pooled spawn state: one context, one overlay sandbox, one fast-tier
   handle and the per-spawn telemetry counter handles, recycled across every
   NT-Path an engine run spawns. A spawn is then a register blit plus O(1)
   resets instead of a context, two tables, a journal and a segment's worth
   of closures allocated and thrown away per path — and its termination
   accounting is five pre-resolved counter bumps instead of five string
   hashes. *)
type arena = {
  ctx : Context.t;
  sandbox : Context.sandbox;
  mutable fl : Fast_loop.t option;
      (* built lazily on the first spawn: the coverage sink only reaches
         this module through [run] *)
  c_term : Telemetry.counter_handle array;  (* indexed by [term_index] *)
  c_insns : Telemetry.counter_handle;
  c_fast_insns : Telemetry.counter_handle;
  c_cycles : Telemetry.counter_handle;
  c_squashed : Telemetry.counter_handle;
}

let term_index = function
  | T_max_length -> 0
  | T_crash _ -> 1
  | T_unsafe _ -> 2
  | T_program_end -> 3
  | T_cache_overflow -> 4

let all_terminations =
  [| T_max_length; T_crash Cpu.Div_by_zero; T_unsafe Insn.Sys_exit;
     T_program_end; T_cache_overflow |]

let make_arena machine ~l1 =
  let tel = machine.Machine.telemetry in
  {
    ctx = Context.create ~l1 ~pc:0 ~sp:0;
    sandbox =
      Context.make_sandbox ~path_id:Cache.committed_owner
        ~line_limit:(Machine_config.l1_lines machine.Machine.config)
        ~words_per_line:(Machine_config.words_per_line machine.Machine.config);
    fl = None;
    c_term =
      Array.map
        (fun t -> Telemetry.counter_handle tel ("nt.term." ^ termination_name t))
        all_terminations;
    c_insns = Telemetry.counter_handle tel "nt.insns";
    c_fast_insns = Telemetry.counter_handle tel "nt.fast_insns";
    c_cycles = Telemetry.counter_handle tel "nt.cycles";
    c_squashed = Telemetry.counter_handle tel "nt.squashed_lines";
  }

(* Execute one NT-Path to termination.

   The context is a copy of the spawning core's registers redirected to
   [entry] (the head of the non-taken edge's stub); the predicate register is
   set iff consistency fixing is on, so the stub's predicated fix
   instructions execute. All memory writes are buffered in the sandbox; on
   termination the path's cache lines are gang-invalidated, its watchpoint
   mutations undone, and the buffered writes discarded — only detector
   reports (the monitor memory area) survive.

   Inner branches follow the actual condition; with
   [follow_nontaken_in_nt] (the Section 4.2 ablation) a cold non-taken edge
   is forced instead, without any consistency fix. *)
let run ?fix_override machine (config : Pe_config.t) coverage ~arena ~l1 ~regs
    ~entry ~spawn_br_pc ~forced_direction ~path_id =
  let ctx = arena.ctx in
  Context.reset_for_spawn ctx ~l1 ~pc:entry;
  Array.blit regs 0 ctx.Context.regs 0 Reg.count;
  let sandbox = arena.sandbox in
  Context.reset_sandbox sandbox ~path_id;
  Context.set_spawn_info sandbox ~br_pc:spawn_br_pc ~edge:forced_direction;
  Context.enter_sandbox ctx sandbox;
  (* Profiled fixing supplies a historically observed value directly into
     the sandbox and suppresses the boundary stubs; otherwise the stubs run
     under the predicate register as usual. *)
  (match fix_override with
   | Some (addr, value) ->
     ignore (Context.sandbox_write sandbox machine.Machine.mem addr value)
   | None -> ctx.Context.pred <- config.Pe_config.fixing);
  Coverage.record_nt coverage spawn_br_pc forced_direction;
  (* OS-support extension (the paper's Section 3.2 future work): virtualise
     I/O syscalls instead of squashing — output is discarded, getc reads
     ahead on a path-local cursor, so the path runs on. *)
  let nt_input_pos = ref (Io.input_pos machine.Machine.io) in
  let virtualise_syscall sys =
    match sys with
    | Insn.Sys_putc | Insn.Sys_print_int ->
      ctx.Context.pc <- ctx.Context.pc + 1;
      true
    | Insn.Sys_getc ->
      Context.set_reg ctx Reg.rv (Io.peek_at machine.Machine.io !nt_input_pos);
      if Io.peek_at machine.Machine.io !nt_input_pos >= 0 then
        incr nt_input_pos;
      ctx.Context.pc <- ctx.Context.pc + 1;
      true
    | Insn.Sys_exit -> false
  in
  (* Selective fast tier inside the path. When the run forces cold edges at
     inner branches ([follow_nontaken_in_nt], which needs per-branch BTB
     counts), the fast tier deoptimizes at every branch instead of being
     disabled — straight-line stretches stay fast: with [threshold =
     max_int] every branch is a spawn candidate and the probe touches no
     BTB state. Otherwise branches follow the actual condition with no BTB
     traffic. Watchpoints and the store hook are rechecked every iteration
     — the path itself arms and disarms them. *)
  let fast_ok = config.Pe_config.selective in
  let deopt_branches = config.Pe_config.follow_nontaken_in_nt in
  (* One fast-tier handle per arena (built on the first spawn, when the
     run's coverage sink is first in hand): segments after that allocate
     nothing. The handle is bound to the arena's context — exactly this
     path's — and re-reads its L1, sandbox and path id per segment,
     covering per-spawn retargeting. *)
  let fl =
    match arena.fl with
    | Some fl -> fl
    | None ->
      let fl = Fast_loop.make machine ctx coverage in
      arena.fl <- Some fl;
      fl
  in
  let fast_insns = ref 0 in
  let rec loop () =
    if ctx.Context.stats.Context.insns >= config.Pe_config.max_nt_path_length
    then T_max_length
    else if
      fast_ok
      && Watchpoints.is_empty machine.Machine.watch
      && (match machine.Machine.store_hook with
         | None -> true
         | Some _ -> false)
    then begin
      let budget =
        config.Pe_config.max_nt_path_length - ctx.Context.stats.Context.insns
      in
      let fstop =
        Fast_loop.run fl ~spawning:deopt_branches ~threshold:max_int ~budget
      in
      let retired = Fast_loop.retired fl in
      (* The fast tier bumped the context's stats; the global index (report
         provenance) follows here, before any instrumented-tier report. *)
      machine.Machine.insn_index <- machine.Machine.insn_index + retired;
      fast_insns := !fast_insns + retired;
      match fstop with
      | Fast_loop.Budget -> T_max_length
      | Fast_loop.Special | Fast_loop.Special_branch_taken
      | Fast_loop.Special_branch_nontaken ->
        step_slow ()
      | Fast_loop.Overflow -> T_cache_overflow
    end
    else step_slow ()
  and step_slow () =
    begin
      Coverage.record_pc_nt coverage ctx.Context.pc;
      match Cpu.step machine ctx with
      | Cpu.Ev_normal -> loop ()
      | Cpu.Ev_branch ->
        let br_pc = ctx.Context.br_pc in
        let taken = ctx.Context.br_taken in
        let followed =
          if config.Pe_config.follow_nontaken_in_nt then begin
            (* Ablation: force the cold non-taken edge instead. *)
            let taken_count, nontaken_count = Btb.counts machine.Machine.btb br_pc in
            let forced_count = if taken then nontaken_count else taken_count in
            if forced_count < config.Pe_config.nt_counter_threshold then begin
              ctx.Context.pc <-
                (if taken then br_pc + 1 else ctx.Context.br_target);
              not taken
            end
            else taken
          end
          else taken
        in
        Coverage.record_nt coverage br_pc followed;
        loop ()
      | Cpu.Ev_syscall sys ->
        if config.Pe_config.sandbox_syscalls && virtualise_syscall sys then
          loop ()
        else T_unsafe sys
      | Cpu.Ev_halt -> T_program_end
      (* [Cpu.exec] reports a sandboxed syscall as [Ev_syscall] *without*
         executing it, so [Ev_exit] cannot be produced here (see the
         sandboxed-syscall unit test). Treat a broken invariant as the
         unsafe event it would have been, not a crash of the simulator. *)
      | Cpu.Ev_exit _ -> T_unsafe Insn.Sys_exit
      | Cpu.Ev_fault fault -> T_crash fault
      | Cpu.Ev_overflow -> T_cache_overflow
    end
  in
  let termination = loop () in
  Context.undo_watches sandbox machine.Machine.watch;
  let recorder = machine.Machine.recorder in
  (* Time the squash (and the Terminate event below) at the path's own final
     cycle count — the recorder's base is the spawn instant. *)
  if Recorder.enabled recorder then
    Recorder.set_local recorder ctx.Context.stats.Context.cycles;
  let squashed_lines = Cache.gang_invalidate l1 ~owner:path_id in
  Telemetry.counter_incr arena.c_term.(term_index termination);
  Telemetry.counter_add arena.c_insns ctx.Context.stats.Context.insns;
  if !fast_insns > 0 then Telemetry.counter_add arena.c_fast_insns !fast_insns;
  Telemetry.counter_add arena.c_cycles ctx.Context.stats.Context.cycles;
  Telemetry.counter_add arena.c_squashed squashed_lines;
  if Recorder.enabled recorder then begin
    let cause : Recorder.cause =
      match termination with
      | T_max_length -> Recorder.Max_length
      | T_crash _ -> Recorder.Crash
      | T_unsafe _ -> Recorder.Unsafe_event
      | T_program_end -> Recorder.Program_end
      | T_cache_overflow -> Recorder.Cache_overflow
    in
    Recorder.emit_terminate recorder ~path_id ~cause
      ~len:ctx.Context.stats.Context.insns ~dirty_lines:squashed_lines
  end;
  {
    spawn_br_pc;
    forced_direction;
    entry_pc = entry;
    insns = ctx.Context.stats.Context.insns;
    cycles = ctx.Context.stats.Context.cycles;
    stores = ctx.Context.stats.Context.stores;
    branches = ctx.Context.stats.Context.branches;
    squashed_lines;
    termination;
  }
