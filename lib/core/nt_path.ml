type termination =
  | T_max_length
  | T_crash of Cpu.fault
  | T_unsafe of Insn.sys
  | T_program_end
  | T_cache_overflow

type record = {
  path_id : int;
  spawn_cycle : int;
  spawn_br_pc : int;
  forced_direction : bool;
  entry_pc : int;
  insns : int;
  fast_insns : int;
  cycles : int;
  stores : int;
  branches : int;
  squashed_lines : int;
  first_report : int;
  reports : int;
  termination : termination;
}

(* The terminations' names in alphabetical order, and each termination's
   place among them. *)
let termination_names =
  [| "cache-overflow"; "crash"; "max-length"; "program-end"; "unsafe-event" |]

let termination_rank = function
  | T_cache_overflow -> 0
  | T_crash _ -> 1
  | T_max_length -> 2
  | T_program_end -> 3
  | T_unsafe _ -> 4

let termination_name t = termination_names.(termination_rank t)

let is_crash record =
  match record.termination with
  | T_crash _ -> true
  | T_max_length | T_unsafe _ | T_program_end | T_cache_overflow -> false

let is_unsafe record =
  match record.termination with
  | T_unsafe _ -> true
  | T_max_length | T_crash _ | T_program_end | T_cache_overflow -> false

(* Pooled spawn state: one context, one overlay sandbox, one driver handle
   with its hooks, recycled across every NT-Path an engine run spawns. A
   spawn is then a register blit plus O(1) resets instead of a context, two
   tables and a segment's worth of closures allocated and thrown away per
   path. *)
type arena = {
  machine : Machine.t;
  config : Pe_config.t;
  coverage : Coverage.t;
  ctx : Context.t;
  sandbox : Context.sandbox;
  fl : Fast_loop.t;
  hooks : Fast_loop.hooks;
  input_pos : int ref;  (* the path-local [getc] cursor *)
}

let termination_of_exit = function
  | Fast_loop.Limit -> T_max_length
  | Fast_loop.Halted -> T_program_end
  | Fast_loop.Fault fault -> T_crash fault
  | Fast_loop.Overflow -> T_cache_overflow
  | Fast_loop.Unsafe sys -> T_unsafe sys
  (* A sandboxed syscall is reported without being executed, so a sandboxed
     context cannot exit (see the sandboxed-syscall unit test). Treat a
     broken invariant as the unsafe event it would have been, not a crash
     of the simulator. *)
  | Fast_loop.Exited _ -> T_unsafe Insn.Sys_exit

(* The path's hooks. Inner branches follow the actual condition; with
   [follow_nontaken_in_nt] (the Section 4.2 ablation) a cold non-taken edge
   is forced instead, without any consistency fix. With [sandbox_syscalls]
   (the OS-support extension, the paper's Section 3.2 future work) I/O
   syscalls are virtualised instead of squashing — output is discarded,
   getc reads ahead on a path-local cursor — so the path runs on. *)
let hooks machine (config : Pe_config.t) coverage ctx input_pos =
  let io = machine.Machine.io in
  let branch () =
    let br_pc = ctx.Context.br_pc in
    let taken = ctx.Context.br_taken in
    let followed =
      if config.Pe_config.follow_nontaken_in_nt then begin
        let taken_count, nontaken_count =
          Btb.counts machine.Machine.btb br_pc
        in
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
    Coverage.record_nt coverage br_pc followed
  in
  let syscall sys =
    config.Pe_config.sandbox_syscalls
    &&
    match sys with
    | Insn.Sys_putc | Insn.Sys_print_int ->
      ctx.Context.pc <- ctx.Context.pc + 1;
      true
    | Insn.Sys_getc ->
      Context.set_reg ctx Reg.rv (Io.peek_at io !input_pos);
      if Io.peek_at io !input_pos >= 0 then incr input_pos;
      ctx.Context.pc <- ctx.Context.pc + 1;
      true
    | Insn.Sys_exit -> false
  in
  { Fast_loop.tick = Fast_loop.no_tick; branch; syscall }

let make_arena machine config coverage ~l1 ~line_limit =
  let ctx = Context.create ~l1 ~pc:0 ~sp:0 in
  let input_pos = ref 0 in
  {
    machine;
    config;
    coverage;
    ctx;
    sandbox =
      Context.make_sandbox ~path_id:Cache.committed_owner ~line_limit
        ~words_per_line:(Machine_config.words_per_line machine.Machine.config);
    fl = Fast_loop.make machine ctx coverage;
    hooks = hooks machine config coverage ctx input_pos;
    input_pos;
  }

(* Execute one NT-Path to termination.

   The context is a copy of the spawning core's registers redirected to
   [entry] (the head of the non-taken edge's stub); the predicate register is
   set iff consistency fixing is on, so the stub's predicated fix
   instructions execute. All memory writes are buffered in the sandbox; on
   termination the path's cache lines are gang-invalidated, its watchpoint
   mutations undone, and the buffered writes discarded — only detector
   reports (the monitor memory area) survive. *)
let run ?fix_override arena ~l1 ~regs ~entry ~spawn_br_pc ~forced_direction
    ~path_id ~spawn_cycle =
  let machine = arena.machine and config = arena.config in
  let first_report = Report.count machine.Machine.reports in
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
  Coverage.record_nt arena.coverage spawn_br_pc forced_direction;
  arena.input_pos := Io.input_pos machine.Machine.io;
  (* Forced cold edges at inner branches need per-branch BTB counts, so
     every branch deoptimizes; otherwise branches follow the actual
     condition with no BTB traffic. *)
  let termination =
    termination_of_exit
      (Fast_loop.drive arena.fl arena.hooks
         ~spawning:config.Pe_config.follow_nontaken_in_nt ~threshold:max_int
         ~limit:config.Pe_config.max_nt_path_length)
  in
  Context.undo_watches sandbox machine.Machine.watch;
  let squashed_lines = Cache.gang_invalidate l1 ~owner:path_id in
  let stats = ctx.Context.stats in
  {
    path_id;
    spawn_cycle;
    spawn_br_pc;
    forced_direction;
    entry_pc = entry;
    insns = stats.Context.insns;
    fast_insns = Fast_loop.fast_insns arena.fl;
    cycles = stats.Context.cycles;
    stores = stats.Context.stores;
    branches = stats.Context.branches;
    squashed_lines;
    first_report;
    reports = Report.count machine.Machine.reports - first_report;
    termination;
  }

(* ---- Folds over a run's records ------------------------------------------ *)

let termination_counts records =
  let counts = Array.make (Array.length termination_names) 0 in
  List.iter
    (fun r ->
      let i = termination_rank r.termination in
      counts.(i) <- counts.(i) + 1)
    records;
  Array.to_list (Array.mapi (fun i n -> (termination_names.(i), n)) counts)

let sum field records = List.fold_left (fun acc r -> acc + field r) 0 records

(* A counter is written only when some record adds to it, and
   [nt.fast_insns] only when it is non-zero: a run that spawns nothing
   leaves no [nt.*] metric in its sink. *)
let record_telemetry tel records =
  if records <> [] then begin
    List.iter
      (fun (name, n) -> if n > 0 then Telemetry.count tel ("nt.term." ^ name) n)
      (termination_counts records);
    Telemetry.count tel "nt.insns" (sum (fun r -> r.insns) records);
    let fast = sum (fun r -> r.fast_insns) records in
    if fast > 0 then Telemetry.count tel "nt.fast_insns" fast;
    Telemetry.count tel "nt.cycles" (sum (fun r -> r.cycles) records);
    Telemetry.count tel "nt.squashed_lines"
      (sum (fun r -> r.squashed_lines) records)
  end;
  ignore
    (List.fold_left
       (fun last r ->
         Telemetry.observe tel "nt.spawn_interarrival" (r.spawn_cycle - last);
         Telemetry.observe tel "nt.len" r.insns;
         Telemetry.observe tel "nt.dirty_per_squash" r.squashed_lines;
         r.spawn_cycle)
       0 records)
