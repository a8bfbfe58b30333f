(* The PathExpander execution engines.

   Both configurations execute the taken path on the primary context; at
   every conditional branch the BTB exercise counters decide whether the
   non-taken edge is spawned as an NT-Path.

   - Standard configuration: the NT-Path runs on the same core (sharing its
     L1); its full execution time, plus spawn and squash overheads, lands on
     the program's critical path (checkpoint-and-rollback).

   - CMP optimisation: NT-Paths run on the idle cores. Functionally the
     simulation executes each NT-Path synchronously at its spawn point —
     which is exactly the memory state the tree-shaped TLS dependency order
     guarantees the path would observe — while the *timing* model assigns it
     to the earliest-free idle core and only charges the primary core the
     spawn overhead; a taken-path segment cannot fully commit until its
     sibling NT-Paths squash, so the program ends at
     max(taken-path end, last NT-Path squash). *)

type outcome = [ `Halted | `Exited of int | `Faulted of Cpu.fault | `Fuel_exhausted ]

type result = {
  outcome : outcome;
  taken_insns : int;
  taken_branches : int;
  taken_stores : int;
  taken_cycles : int;
  total_cycles : int;
  nt_records : Nt_path.record list;
  spawns : int;
  skipped_spawns : int;
  profiled_overrides : int;
  coverage : Coverage.t;
  fast_insns : int;
      (* taken-path instructions retired on the fast tier *)
  fast_segments : int;
      (* fast segments that retired at least one instruction *)
  skipped_edges : int list;
      (* observatory only: encoded edges (2*pc + dir) whose spawn was
         suppressed by the CMP outstanding-path budget, sorted distinct;
         [] when the observatory is unarmed *)
}

let outcome_name = function
  | `Halted -> "halted"
  | `Exited n -> Printf.sprintf "exited(%d)" n
  | `Faulted f -> "faulted: " ^ Cpu.fault_to_string f
  | `Fuel_exhausted -> "fuel-exhausted"

let outcome_of_exit : Fast_loop.exit -> outcome = function
  | Fast_loop.Limit -> `Fuel_exhausted
  | Fast_loop.Exited status -> `Exited status
  | Fast_loop.Halted -> `Halted
  | Fast_loop.Fault f -> `Faulted f
  (* Sandbox events: the taken path has no sandbox, so no write of its can
     overflow an L1 buffer and its syscalls execute; degrade to a fault if
     that ever changes. *)
  | Fast_loop.Overflow | Fast_loop.Unsafe _ -> `Faulted Cpu.Sandbox_overflow

type cmp_state = {
  core_free : int array;  (* per idle core: cycle when it becomes free *)
  mutable active_finish : int list;  (* finish times of outstanding NT-Paths *)
}

(* Fixed 8-slot ring of recently observed condition-variable values
   (profiled fixing). Newest-first, insert-if-absent with no reordering on
   re-observation, oldest evicted when full — the exact semantics of the
   bounded history list it replaces, without the per-observation
   [List.mem]/[List.length]/[List.filteri] walks and list allocation. *)
module Vring = struct
  let capacity = 8  (* power of two: index arithmetic is a mask *)

  type t = { slots : int array; mutable len : int; mutable head : int }

  let create () = { slots = Array.make capacity 0; len = 0; head = 0 }

  let mem t v =
    let rec go i =
      i < t.len
      && (t.slots.((t.head + i) land (capacity - 1)) = v || go (i + 1))
    in
    go 0

  let add_if_absent t v =
    if not (mem t v) then begin
      t.head <- (t.head + capacity - 1) land (capacity - 1);
      t.slots.(t.head) <- v;
      if t.len < capacity then t.len <- t.len + 1
    end

  (* First (most recently observed) value satisfying [f]. *)
  let find_newest t f =
    let rec go i =
      if i >= t.len then None
      else
        let v = t.slots.((t.head + i) land (capacity - 1)) in
        if f v then Some v else go (i + 1)
    in
    go 0
end

let run ?(config = Pe_config.default) ?(fuel = 100_000_000) ?(obs = false)
    machine =
  let mconfig = machine.Machine.config in
  let program = machine.Machine.program in
  let ctx = Machine.main_context machine in
  let coverage = Coverage.create program in
  (* Coverage Observatory (DESIGN.md §15): when armed, collect
     frontier-attribution bookkeeping (which NT-Path first covered each
     edge, which edges lost their spawn to the budget) and tier/deopt-cause
     counters. All of it is pure observation — arming changes no simulated
     behaviour, so observed and unobserved runs stay byte-identical. *)
  if obs then Coverage.arm_attribution coverage;
  let skipped_edge_set = Hashtbl.create 16 in
  let nt_records = ref [] in
  let spawns = ref 0 in
  let skipped = ref 0 in
  let nt_serial_cycles = ref 0 in
  let next_path_id = ref 0 in
  let last_reset = ref 0 in
  let cmp =
    {
      core_free = Array.make (max 1 (mconfig.Machine_config.cores - 1)) 0;
      active_finish = [];
    }
  in
  let cmp_l1s =
    lazy
      (Array.init
         (max 1 (mconfig.Machine_config.cores - 1))
         (fun _ -> Machine.new_l1 machine))
  in
  (* Profiled fixing (Section 4.4 future work): observe each fixable
     condition variable's value whenever its branch executes; at spawn time
     prefer a historically observed value satisfying the forced edge over
     the boundary stub. *)
  let atom_map = Hashtbl.create 64 in
  if config.Pe_config.profiled_fixing then
    List.iter
      (fun (br_pc, atom) -> Hashtbl.replace atom_map br_pc atom)
      program.Program.fix_atoms;
  let value_history : (int, Vring.t) Hashtbl.t = Hashtbl.create 64 in
  let home_addr home =
    match home with
    | Fix_atom.Hglobal addr -> addr
    | Fix_atom.Hframe off -> Context.get_reg ctx Reg.fp + off
  in
  let read_home home =
    let addr = home_addr home in
    if Memory.is_valid machine.Machine.mem addr then
      Some (Memory.read machine.Machine.mem addr)
    else None
  in
  let observe_condition_var br_pc =
    match Hashtbl.find_opt atom_map br_pc with
    | None -> ()
    | Some atom ->
      (match read_home atom.Fix_atom.var with
       | None -> ()
       | Some v ->
         let ring =
           match Hashtbl.find_opt value_history br_pc with
           | Some r -> r
           | None ->
             let r = Vring.create () in
             Hashtbl.replace value_history br_pc r;
             r
         in
         Vring.add_if_absent ring v)
  in
  let profiled_override ~br_pc ~forced_direction =
    match Hashtbl.find_opt atom_map br_pc with
    | None -> None
    | Some atom ->
      let cmp = Fix_atom.edge_cmp atom ~forced_direction in
      let rhs =
        match atom.Fix_atom.rhs with
        | Fix_atom.Const k -> Some k
        | Fix_atom.Var home -> read_home home
      in
      (match (rhs, Hashtbl.find_opt value_history br_pc) with
       | Some rhs_value, Some ring ->
         (match
            Vring.find_newest ring (fun v -> Insn.eval_cmp cmp v rhs_value)
          with
          | Some v -> Some (home_addr atom.Fix_atom.var, v)
          | None -> None)
       | _ -> None)
  in
  let overrides = ref 0 in
  let counted_override ov =
    (match ov with Some _ -> incr overrides | None -> ());
    ov
  in
  let spawn_rng = Rng.create config.Pe_config.random_seed in
  let random_spawn () =
    config.Pe_config.random_spawn_chance > 0.0
    && Rng.float spawn_rng < config.Pe_config.random_spawn_chance
  in
  let tel = machine.Machine.telemetry in
  let fresh_path_id () =
    (* 8-bit version tags, id 0 reserved for committed data (Section 4.3). *)
    next_path_id := !next_path_id + 1;
    let id = ((!next_path_id - 1) mod 255) + 1 in
    if !next_path_id > 255 then begin
      (* The id is being reused. Every path gang-invalidates its lines at
         termination, so no L1 should still hold lines under this tag — but
         a stale survivor would let the old path's squash destroy the new
         path's lines, so clean defensively and account for it. *)
      let stale = ref (Cache.gang_invalidate ctx.Context.l1 ~owner:id) in
      if Lazy.is_val cmp_l1s then
        Array.iter
          (fun l1 -> stale := !stale + Cache.gang_invalidate l1 ~owner:id)
          (Lazy.force cmp_l1s);
      if !stale > 0 then Telemetry.count tel "path_id.stale_lines_cleaned" !stale
    end;
    id
  in
  (* One pooled context + sandbox recycled across every spawn of this run. *)
  let nt_arena =
    Nt_path.make_arena machine config coverage ~l1:ctx.Context.l1
      ~line_limit:(Machine_config.l1_lines machine.Machine.config)
  in
  let recorder = machine.Machine.recorder in
  let last_spawn_cycle = ref 0 in
  (* Histogram handles resolved once per run; spawns observe through them
     without re-hashing the metric names. *)
  let h_interarrival = Telemetry.hist tel "nt.spawn_interarrival" in
  let h_len = Telemetry.hist tel "nt.len" in
  let h_dirty = Telemetry.hist tel "nt.dirty_per_squash" in
  let run_nt_path ?fix_override ~l1 ~entry ~br_pc ~forced_direction () =
    let now = ctx.Context.stats.Context.cycles in
    Telemetry.hist_observe h_interarrival (now - !last_spawn_cycle);
    last_spawn_cycle := now;
    let path_id = fresh_path_id () in
    (* Flight-recorder clock bracket: the Spawn event fires at the primary
       core's current cycle, then that instant becomes the base for the
       path's own events (bug reports, squash, terminate), which carry
       path-local cycle offsets. *)
    if Recorder.enabled recorder then begin
      Recorder.set_local recorder now;
      Recorder.emit_spawn recorder ~path_id ~br_pc ~edge:forced_direction
        ~entry_pc:entry;
      Recorder.set_base recorder now
    end;
    (* Attribution: edges this path records are stamped with its 1-based
       spawn ordinal, which indexes the run's [nt_records] (spawn order). *)
    if obs then Coverage.set_nt_seq coverage !spawns;
    let record =
      Nt_path.run ?fix_override nt_arena ~l1 ~regs:ctx.Context.regs ~entry
        ~spawn_br_pc:br_pc ~forced_direction ~path_id
    in
    if obs then Coverage.set_nt_seq coverage 0;
    if Recorder.enabled recorder then Recorder.set_base recorder 0;
    Telemetry.hist_observe h_len record.Nt_path.insns;
    Telemetry.hist_observe h_dirty record.Nt_path.squashed_lines;
    record
  in
  let spawn_standard ~entry ~br_pc ~forced_direction =
    incr spawns;
    let fix_override =
      if config.Pe_config.profiled_fixing then
        counted_override (profiled_override ~br_pc ~forced_direction)
      else None
    in
    let record =
      run_nt_path ?fix_override ~l1:ctx.Context.l1 ~entry ~br_pc
        ~forced_direction ()
    in
    nt_records := record :: !nt_records;
    nt_serial_cycles :=
      !nt_serial_cycles + record.Nt_path.cycles
      + mconfig.Machine_config.spawn_cycles + mconfig.Machine_config.squash_cycles
  in
  let spawn_cmp ~entry ~br_pc ~forced_direction =
    let now = ctx.Context.stats.Context.cycles in
    cmp.active_finish <- List.filter (fun f -> f > now) cmp.active_finish;
    if List.length cmp.active_finish >= config.Pe_config.max_num_nt_paths then begin
      incr skipped;
      if obs then
        Hashtbl.replace skipped_edge_set
          ((2 * br_pc) + if forced_direction then 1 else 0)
          ()
    end
    else begin
      incr spawns;
      (* Register copy to the idle core: spawn overhead on the primary. *)
      ctx.Context.stats.Context.cycles <-
        now + mconfig.Machine_config.spawn_cycles;
      let core =
        let best = ref 0 in
        Array.iteri
          (fun i free -> if free < cmp.core_free.(!best) then best := i)
          cmp.core_free;
        !best
      in
      let l1 = (Lazy.force cmp_l1s).(core) in
      let fix_override =
        if config.Pe_config.profiled_fixing then
          counted_override (profiled_override ~br_pc ~forced_direction)
        else None
      in
      let record = run_nt_path ?fix_override ~l1 ~entry ~br_pc ~forced_direction () in
      nt_records := record :: !nt_records;
      let start = max (ctx.Context.stats.Context.cycles) cmp.core_free.(core) in
      let finish =
        start + record.Nt_path.cycles + mconfig.Machine_config.squash_cycles
      in
      cmp.core_free.(core) <- finish;
      cmp.active_finish <- finish :: cmp.active_finish
    end
  in
  let handle_branch () =
    let br_pc = ctx.Context.br_pc and taken = ctx.Context.br_taken in
    Coverage.record_taken coverage br_pc taken;
    if config.Pe_config.profiled_fixing then observe_condition_var br_pc;
    match config.Pe_config.mode with
    | Pe_config.Baseline -> ()
    | Pe_config.Standard | Pe_config.Cmp ->
      let taken_count, nontaken_count = Btb.counts machine.Machine.btb br_pc in
      let forced_count = if taken then nontaken_count else taken_count in
      Btb.exercise machine.Machine.btb br_pc ~taken;
      if
        config.Pe_config.spawn_everywhere
        || forced_count < config.Pe_config.nt_counter_threshold
        || random_spawn ()
      then begin
        Btb.exercise machine.Machine.btb br_pc ~taken:(not taken);
        (* The interpreter left the branch's taken-target in the context's
           scratch fields; the non-taken edge is the one to force. *)
        let entry = if taken then br_pc + 1 else ctx.Context.br_target in
        match config.Pe_config.mode with
        | Pe_config.Standard ->
          spawn_standard ~entry ~br_pc ~forced_direction:(not taken)
        | Pe_config.Cmp -> spawn_cmp ~entry ~br_pc ~forced_direction:(not taken)
        | Pe_config.Baseline -> ()
      end
  in
  (* [CounterResetInterval] is defined over *program progress*
     (Section 3.1), so the cadence follows the primary context's
     retired-instruction count. [Machine.insn_index] also advances
     inside sandboxed NT-Paths, which would tie the reset rate to how
     many NT-Paths happened to spawn. The tick returns the next reset
     boundary, so no fast segment crosses it. *)
  let tick () =
    if
      ctx.Context.stats.Context.insns - !last_reset
      >= config.Pe_config.counter_reset_interval
    then begin
      Btb.reset_counters machine.Machine.btb;
      Telemetry.incr tel "btb.counter_resets";
      if Recorder.enabled recorder then begin
        Recorder.set_local recorder ctx.Context.stats.Context.cycles;
        Recorder.emit_counter_reset recorder
          ~insns:ctx.Context.stats.Context.insns
      end;
      last_reset := ctx.Context.stats.Context.insns
    end;
    !last_reset + config.Pe_config.counter_reset_interval
  in
  (* Some configurations take an action at *every* branch that the fast
     tier deliberately omits — randomised spawning draws the RNG per branch,
     profiled fixing observes the condition variable per branch,
     spawn-everywhere makes every branch a spawn. [threshold = max_int]
     stops the fast tier at every branch instead (see Fast_loop.drive), so
     every per-branch action happens in the branch hook in the exact
     sequence a run with every instruction on the hooked step produces.
     Branches need the hook at all whenever they spawn (non-Baseline
     modes) or observe condition-variable history (profiled fixing, in
     every mode). *)
  let spawning =
    config.Pe_config.mode <> Pe_config.Baseline
    || config.Pe_config.profiled_fixing
  in
  let threshold =
    if
      config.Pe_config.random_spawn_chance > 0.0
      || config.Pe_config.profiled_fixing
      || config.Pe_config.spawn_everywhere
    then max_int
    else config.Pe_config.nt_counter_threshold
  in
  let fl = Fast_loop.make ~obs machine ctx coverage in
  let hooks =
    { Fast_loop.tick; branch = handle_branch; syscall = (fun _ -> true) }
  in
  let outcome =
    Telemetry.span tel "engine.run" (fun () ->
        outcome_of_exit
          (Fast_loop.drive fl hooks ~spawning ~threshold ~limit:fuel))
  in
  let taken_cycles = ctx.Context.stats.Context.cycles in
  let total_cycles =
    match config.Pe_config.mode with
    | Pe_config.Baseline -> taken_cycles
    | Pe_config.Standard -> taken_cycles + !nt_serial_cycles
    | Pe_config.Cmp ->
      (* The last taken-path segment needs its siblings' squash tokens. *)
      List.fold_left max taken_cycles cmp.active_finish
  in
  (* Observability: every run reports what it did and what it cost. *)
  if Telemetry.label tel = "" then
    Telemetry.set_label tel (Pe_config.mode_name config.Pe_config.mode);
  Telemetry.count tel "engine.spawns" !spawns;
  Telemetry.count tel "engine.skipped_spawns" !skipped;
  Telemetry.count tel "engine.profiled_overrides" !overrides;
  Fast_loop.record_telemetry fl tel;
  Telemetry.count tel "taken.insns" ctx.Context.stats.Context.insns;
  Telemetry.count tel "taken.branches" ctx.Context.stats.Context.branches;
  Telemetry.count tel "taken.cycles" taken_cycles;
  Telemetry.count tel "engine.total_cycles" total_cycles;
  Telemetry.gauge tel "coverage.taken_pct" (Coverage.taken_pct coverage);
  Telemetry.gauge tel "coverage.combined_pct" (Coverage.combined_pct coverage);
  Cache.record_telemetry ctx.Context.l1 tel ~prefix:"l1.primary";
  Cache.record_telemetry machine.Machine.l2 tel ~prefix:"l2";
  if Lazy.is_val cmp_l1s then
    Array.iteri
      (fun i l1 ->
        Cache.record_telemetry l1 tel ~prefix:(Printf.sprintf "l1.core%d" (i + 1)))
      (Lazy.force cmp_l1s);
  Btb.record_telemetry machine.Machine.btb tel ~prefix:"btb";
  {
    outcome;
    taken_insns = ctx.Context.stats.Context.insns;
    taken_branches = ctx.Context.stats.Context.branches;
    taken_stores = ctx.Context.stats.Context.stores;
    taken_cycles;
    total_cycles;
    nt_records = List.rev !nt_records;
    spawns = !spawns;
    skipped_spawns = !skipped;
    profiled_overrides = !overrides;
    coverage;
    fast_insns = Fast_loop.fast_insns fl;
    fast_segments = Fast_loop.fast_segments fl;
    skipped_edges =
      List.sort_uniq compare
        (Hashtbl.fold (fun k () acc -> k :: acc) skipped_edge_set []);
  }
