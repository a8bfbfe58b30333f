(* The pure-software PathExpander implementation (Section 5).

   Functionally this mirrors the hardware standard configuration: NT-Paths
   are selected by the same exercise-history policy and run serially,
   through the same [Nt_path] runner and sandbox. What is software's own is
   the exercise history, which lives in an instrumentation-side table
   rather than the BTB, and the cost: the run is priced with {!Pin_model}
   (dispatch dilation, per-branch analysis, checkpointing and restore-log
   upkeep). *)

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
  (* The software scheme has no L1 buffer to overflow: a path's restore log
     grows as long as it writes. *)
  let nt_arena =
    Nt_path.make_arena machine config coverage ~l1:ctx.Context.l1
      ~line_limit:max_int
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
      incr spawns;
      let record =
        Nt_path.run nt_arena ~l1:ctx.Context.l1 ~regs:ctx.Context.regs
          ~entry:(if taken then br_pc + 1 else ctx.Context.br_target)
          ~spawn_br_pc:br_pc ~forced_direction:(not taken)
          ~path_id:(((!spawns - 1) mod 255) + 1)
      in
      nt_records := record :: !nt_records
    end
  in
  (* The history is the software's own, so every taken-path branch
     deoptimizes ([threshold = max_int] touches no BTB state). *)
  let outcome =
    Engine.outcome_of_exit
      (Fast_loop.drive
         (Fast_loop.make machine ctx coverage)
         { Fast_loop.tick = Fast_loop.no_tick; branch;
           syscall = (fun _ -> true) }
         ~spawning:true ~threshold:max_int ~limit:fuel)
  in
  let nt_records = List.rev !nt_records in
  let nt_sum field =
    List.fold_left (fun acc record -> acc + field record) 0 nt_records
  in
  (* Every sandboxed write bumps the path's store count, so [stores] is the
     restore log the software scheme would have kept. *)
  let accounting =
    Pin_model.account model ~taken_insns:ctx.Context.stats.Context.insns
      ~taken_branches:ctx.Context.stats.Context.branches ~spawns:!spawns
      ~nt_insns:(nt_sum (fun r -> r.Nt_path.insns))
      ~nt_branches:(nt_sum (fun r -> r.Nt_path.branches))
      ~nt_writes:(nt_sum (fun r -> r.Nt_path.stores))
  in
  { outcome; coverage; spawns = !spawns; nt_records; accounting }
