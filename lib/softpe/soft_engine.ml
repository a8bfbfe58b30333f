(* The pure-software PathExpander implementation (Section 5).

   Functionally this mirrors the hardware standard configuration — NT-Paths
   are selected by the same exercise-history policy and run serially — but
   the mechanisms are the software ones: the spawn saves processor state into
   a checkpoint structure, the sandbox is a restore-log (writes go straight
   to memory, old values logged and replayed backwards at squash), and the
   exercise history lives in an instrumentation-side hash table rather than
   the BTB. The run is costed with {!Pin_model}. *)

type result = {
  outcome : Engine.outcome;
  coverage : Coverage.t;
  spawns : int;
  nt_records : Nt_path.record list;
  accounting : Pin_model.accounting;
}

(* Software exercise history: (branch pc, direction) -> count. Unlike the
   4-bit BTB counters this never overflows or aliases. Branch pcs are code
   indices, so a flat array indexed [2*pc + direction] replaces the hash
   table the instrumented binary would use — same counts, no hashing on the
   per-branch hot path. *)
type history = int array

let history_index pc dir = (2 * pc) + if dir then 1 else 0

let history_count (history : history) pc dir =
  history.(history_index pc dir)

let history_bump (history : history) pc dir =
  let i = history_index pc dir in
  history.(i) <- history.(i) + 1

let run ?(config = Pe_config.default) ?(model = Pin_model.default)
    ?(fuel = 100_000_000) machine =
  let program = machine.Machine.program in
  let ctx = Machine.main_context machine in
  let coverage = Coverage.create program in
  let history : history =
    Array.make (2 * Array.length program.Program.code) 0
  in
  let nt_records = ref [] in
  let spawns = ref 0 in
  let next_path_id = ref 0 in
  (* NT-Path work, separated from the taken path's own dynamic profile. *)
  let nt_insns = ref 0 in
  let nt_branches = ref 0 in
  let nt_writes = ref 0 in
  let selective = config.Pe_config.selective in
  (* Two driver handles on the one context: each NT-Path is driven from
     inside the taken drive's branch hook, and each drive's accounting
     stays on its own handle. *)
  let taken_fl = Fast_loop.make machine ctx coverage in
  let nt_fl = Fast_loop.make machine ctx coverage in
  (* NT-Paths follow the actual condition, with no BTB traffic, and
     terminate at any syscall. *)
  let nt_hooks =
    {
      Fast_loop.tick = Fast_loop.no_tick;
      branch =
        (fun () ->
          Coverage.record_nt coverage ctx.Context.br_pc ctx.Context.br_taken);
      syscall = (fun _ -> false);
    }
  in
  (* The spawn saves the processor state; the write-log sandbox writes
     through to memory and is rolled back at squash. *)
  let run_nt_path ~entry ~spawn_br_pc ~forced_direction =
    incr next_path_id;
    let saved = Context.checkpoint ctx in
    let path_id = ((!next_path_id - 1) mod 255) + 1 in
    let sandbox = Context.make_write_log_sandbox ~path_id in
    Context.set_spawn_info sandbox ~br_pc:spawn_br_pc ~edge:forced_direction;
    Context.enter_sandbox ctx sandbox;
    ctx.Context.pc <- entry;
    ctx.Context.pred <- config.Pe_config.fixing;
    Coverage.record_nt coverage spawn_br_pc forced_direction;
    let start = ctx.Context.stats.Context.insns in
    let start_branches = ctx.Context.stats.Context.branches in
    let termination =
      Nt_path.termination_of_exit
        (Fast_loop.drive nt_fl nt_hooks ~selective ~spawning:false
           ~threshold:max_int
           ~limit:(start + config.Pe_config.max_nt_path_length))
    in
    let writes = Context.write_log_size sandbox in
    Context.rollback_write_log sandbox machine.Machine.mem;
    Context.undo_watches sandbox machine.Machine.watch;
    Context.exit_sandbox ctx;
    Context.restore ctx saved;
    {
      Nt_path.spawn_br_pc;
      forced_direction;
      entry_pc = entry;
      insns = ctx.Context.stats.Context.insns - start;
      cycles = 0;
      stores = writes;
      branches = ctx.Context.stats.Context.branches - start_branches;
      squashed_lines = 0;  (* restore-log rollback: no cache lines to squash *)
      termination;
    }
  in
  (* The taken path's branch hook: every branch bumps the history, and a
     cold non-taken edge is spawned on the spot. *)
  let branch () =
    let br_pc = ctx.Context.br_pc and taken = ctx.Context.br_taken in
    Coverage.record_taken coverage br_pc taken;
    let forced_count = history_count history br_pc (not taken) in
    history_bump history br_pc taken;
    if
      config.Pe_config.mode <> Pe_config.Baseline
      && (config.Pe_config.spawn_everywhere
          || forced_count < config.Pe_config.nt_counter_threshold)
    then begin
      history_bump history br_pc (not taken);
      let entry = if taken then br_pc + 1 else ctx.Context.br_target in
      incr spawns;
      let record =
        run_nt_path ~entry ~spawn_br_pc:br_pc ~forced_direction:(not taken)
      in
      nt_records := record :: !nt_records;
      nt_insns := !nt_insns + record.Nt_path.insns;
      nt_branches := !nt_branches + record.Nt_path.branches;
      nt_writes := !nt_writes + record.Nt_path.stores
    end
  in
  (* The history is the software's own, so every taken-path branch
     deoptimizes ([threshold = max_int] touches no BTB state). *)
  let outcome =
    Engine.outcome_of_exit
      (Fast_loop.drive taken_fl
         { Fast_loop.tick = Fast_loop.no_tick; branch;
           syscall = (fun _ -> true) }
         ~selective ~spawning:true ~threshold:max_int ~limit:fuel)
  in
  (* The context ran both the taken path and (serially) every NT-Path; the
     taken path's own profile is the difference. *)
  let taken_insns = ctx.Context.stats.Context.insns - !nt_insns in
  let taken_branches = ctx.Context.stats.Context.branches - !nt_branches in
  let accounting =
    Pin_model.account model ~taken_insns ~taken_branches ~spawns:!spawns
      ~nt_insns:!nt_insns ~nt_branches:!nt_branches ~nt_writes:!nt_writes
  in
  {
    outcome;
    coverage;
    spawns = !spawns;
    nt_records = List.rev !nt_records;
    accounting;
  }
