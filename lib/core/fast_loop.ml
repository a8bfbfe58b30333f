(* The run driver: the one loop behind the taken path, NT-Paths, the
   software PathExpander and the plain baseline run, split across two
   tiers (coverage-preserving selective instrumentation, as in HeXcite).

   The fast tier ([go]) runs with no detector hooks, no store-hook
   dispatch and no recorder branches — just registers, memory, cache
   timing and coverage bits. The moment an instruction needs heavy
   machinery (a syscall, a watch/unwatch, an access to a watched word, a
   detector check that would file a report, a fault, or a branch whose
   cold-edge counter makes it a spawn candidate) the segment stops
   *before* it, and [drive] executes that one instruction on the
   instrumented tier ([Cpu.step]) and hands the event to the caller's
   hooks. Deoptimization, not re-execution: no instruction runs twice, so
   every observable — architectural state, stats, cache/BTB contents,
   coverage, reports, recorder stream, output — is bit-for-bit what the
   instrumented tier alone would produce.

   The stop-before discipline rests on every case of [go] either committing
   *exactly* the instrumented tier's state transitions or committing
   *nothing* and stopping. Pre-checks make the latter possible without
   exceptions: memory operands are validated with [Memory.is_valid] (the
   exact complement of [Memory.check]'s raise) and divisors checked against
   zero before any side effect. While any watchpoint is armed
   ([watching], read at segment entry: the watch set only changes on the
   instrumented tier or in a squash, both between segments), a memory
   operand is also looked up in the watch unit's per-word filter, and an
   access to a watched word stops the segment so [Cpu.step] files exactly
   the reports it would file alone. The filter ignores the range's mode: a
   stop before a write to a read-watched word is spurious, never wrong.
   The register effects are [Cpu]'s own inlined helpers. One case commits
   and still stops: a sandboxed store that overflows the path's L1 line
   budget, only discoverable by doing the write. The instrumented tier
   retires it (stats and latency charged, pc not advanced) and raises;
   [Overflowed] leaves exactly that state.

   Spawn candidates are found by a side-effect-free BTB probe
   ([Btb.probe_exercise]). Within a segment a forced-edge counter never
   decreases (spawns only happen on the instrumented tier), so stale
   counters can only deoptimize spuriously, never miss a spawn. A BTB miss
   always deoptimizes: the insertion belongs to the instrumented tier's
   [Btb.counts]/[Btb.exercise] pair, whose exact effect the probe commits
   for exercised non-candidates. A [max_int] threshold makes every branch a
   candidate and touches nothing.

   The tier is data, read from the context at segment entry ([segment]):
   no sandbox is the taken path (plain memory, committed cache ownership,
   taken-path coverage); a sandbox is an NT-Path (buffered or logged
   memory, speculative ownership under the path's id, NT-Path coverage).

   Performance structure: [go] is a *top-level* tail-recursive function
   over a flat mutable handle and plain integer state (pc and five stat
   deltas, flushed into the context once per segment). Without flambda
   that matters twice: a segment allocates nothing (parameters are record
   stores, every [stop] constructor is constant), and every call on the
   per-instruction path is a known direct call. A closure-tree variant
   cost ~300M minor words per sweep and caml_apply on every instruction.
   The driver ([drive_loop]/[step]) is top level for the same reason. *)

(* How a fast segment ended. *)
type stop =
  | Budget  (* segment budget exhausted *)
  | Special
      (* the instruction at [ctx.pc] needs the instrumented tier; nothing
         about it has been committed *)
  | Special_branch_taken
      (* a spawn-candidate conditional branch whose condition the fast tier
         evaluated as taken (cross-checked against the instrumented tier) *)
  | Special_branch_nontaken
      (* like [Special_branch_taken], condition evaluated as not taken *)
  | Overflowed
      (* a sandboxed store overflowed the path's L1 budget; the store has
         retired in place *)

type exit =
  | Limit
  | Exited of int
  | Halted
  | Fault of Cpu.fault
  | Overflow
  | Unsafe of Insn.sys

type hooks = {
  tick : unit -> int;
  branch : unit -> unit;
  syscall : Insn.sys -> bool;
}

let no_tick () = max_int

type t = {
  machine : Machine.t;
  ctx : Context.t;
  coverage : Coverage.t;
  dcode : Decode.t array;
  mem : Memory.t;
  watch : Watchpoints.t;
  btb : Btb.t;
  regs : int array;
  code_len : int;
  (* The tier, re-read from the context at every segment ([segment]): an NT
     arena's context is retargeted per spawn (CMP spawns land on idle
     cores' L1s, the 8-bit path id is fresh per spawn). *)
  mutable l1 : Cache.t;
  mutable sandbox : Context.sandbox option;
  mutable owner : int;
  mutable pcs : Coverage.pc_sink;
      (* the statement-coverage kind, so the per-instruction record does
         not test the tier *)
  mutable watching : bool;  (* some watchpoint is armed *)
  (* per-drive parameters *)
  mutable selective : bool;
  mutable spawning : bool;
  mutable threshold : int;
  mutable limit : int;
  mutable boundary : int;  (* where the caller's tick runs next *)
  (* per-segment parameter and result *)
  mutable budget : int;
  mutable retired : int;
  mutable memo_hits : int;
      (* batched latency accounting (DESIGN.md §13): accesses the cache's
         MRU memo answers are L1 hits with zero stall cycles and no cache
         state change, counted here and flushed to the hit counter once per
         segment, mirroring how the stat deltas flush. The owner is the
         path's id inside an NT-Path, so a memoized *write* only
         short-circuits when the line already carries this path's tag (no
         retag, no journal due). *)
  (* per-drive accounting, reset by [drive]: a nested drive (an NT-Path run
     from a branch hook) works on its own handle and cannot touch these *)
  mutable fast_insns : int;
  mutable fast_segments : int;
  mutable fast_branches : int;
  obs : bool;
  deopts : int array;
      (* observatory only: instrumented steps by cause, indexed by the
         [d_*] constants below *)
}

let d_branch = 0
let d_syscall = 1
let d_watch = 2
let d_detector = 3
let d_fault = 4
let d_other = 5
let d_pinned = 6

let[@inline always] latency t ~write addr =
  if Cache.memo_probe t.l1 addr ~owner:t.owner ~write then begin
    t.memo_hits <- t.memo_hits + 1;
    0
  end
  else
    Machine.access_latency t.machine t.l1 ~owner:t.owner ~write
      ~speculative:(match t.sandbox with None -> false | Some _ -> true)
      addr

(* The fast tier must not touch [addr]: the access would fault, or it hits
   a watched word and may file a report. *)
let[@inline always] blocked t addr =
  (not (Memory.is_valid t.mem addr))
  || (t.watching && Watchpoints.watched t.watch addr)

let[@inline always] read t addr =
  match t.sandbox with
  | None -> Memory.read_valid t.mem addr
  | Some sb -> Context.sandbox_read sb t.mem addr

(* [false]: the write overflowed the sandbox's L1 budget. *)
let[@inline always] write t addr v =
  match t.sandbox with
  | None ->
    Memory.write_valid t.mem addr v;
    true
  | Some sb -> Context.sandbox_write sb t.mem addr v

let[@inline always] record_edge t pc taken =
  match t.sandbox with
  | None -> Coverage.record_taken t.coverage pc taken
  | Some _ -> Coverage.record_nt t.coverage pc taken

(* Segment exit: final pc into the context, the stat deltas accumulated in
   the loop's registers onto its counters, the retired count into the
   handle — no exit record. *)
let[@inline always] finish t pc n cyc ld st br =
  t.ctx.Context.pc <- pc;
  let stats = t.ctx.Context.stats in
  stats.Context.insns <- stats.Context.insns + n;
  stats.Context.cycles <- stats.Context.cycles + cyc;
  stats.Context.loads <- stats.Context.loads + ld;
  stats.Context.stores <- stats.Context.stores + st;
  stats.Context.branches <- stats.Context.branches + br;
  t.retired <- n

(* The two exits are cold (once per segment): kept out of line so the
   loop's hot arms stay compact. *)
let[@inline never] special t pc n cyc ld st br =
  finish t pc n cyc ld st br;
  Special

(* The overflowing store at [pc] retires in place: its stats and latency
   are already in [n]..[st], the pc is not advanced. *)
let[@inline never] overflow t pc n cyc ld st br =
  finish t pc n cyc ld st br;
  Overflowed

(* [pc]..[br] are the live per-instruction state; every executed
   instruction mirrors the per-pc coverage record [step] makes before the
   instrumented tier and that tier's own insns/cycles bump. *)
let rec go t pc n cyc ld st br =
  if n >= t.budget then begin
    finish t pc n cyc ld st br;
    Budget
  end
  else if pc < 0 || pc >= t.code_len then special t pc n cyc ld st br
  else begin
    let regs = t.regs in
    match Array.unsafe_get t.dcode pc with
    | Decode.D_alu (op, rd, rs, rt) ->
      Cpu.exec_alu regs op rd (Array.unsafe_get regs rs)
        (Array.unsafe_get regs rt);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_alui (op, rd, rs, imm) ->
      Cpu.exec_alu regs op rd (Array.unsafe_get regs rs) imm;
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_div (rd, rs, rt) ->
      let b = Array.unsafe_get regs rt in
      (* zero divisor: the instrumented tier faults (Div_by_zero) *)
      if b = 0 then special t pc n cyc ld st br
      else begin
        Cpu.exec_div regs rd (Array.unsafe_get regs rs) b;
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_mod (rd, rs, rt) ->
      let b = Array.unsafe_get regs rt in
      if b = 0 then special t pc n cyc ld st br
      else begin
        Cpu.exec_mod regs rd (Array.unsafe_get regs rs) b;
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_divi (rd, rs, imm) ->
      if imm = 0 then special t pc n cyc ld st br
      else begin
        Cpu.exec_div regs rd (Array.unsafe_get regs rs) imm;
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_modi (rd, rs, imm) ->
      if imm = 0 then special t pc n cyc ld st br
      else begin
        Cpu.exec_mod regs rd (Array.unsafe_get regs rs) imm;
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_cmp (c, rd, rs, rt) ->
      Cpu.exec_cmp regs c rd (Array.unsafe_get regs rs)
        (Array.unsafe_get regs rt);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_cmpi (c, rd, rs, imm) ->
      Cpu.exec_cmp regs c rd (Array.unsafe_get regs rs) imm;
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_li (rd, imm) ->
      Cpu.write_reg regs rd imm;
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_mov (rd, rs) ->
      Cpu.write_reg regs rd (Array.unsafe_get regs rs);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_load (rd, base, off) ->
      let addr = Array.unsafe_get regs base + off in
      if blocked t addr then special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false addr in
        Cpu.write_reg regs rd (read t addr);
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_store (rs, base, off) ->
      let addr = Array.unsafe_get regs base + off in
      if blocked t addr then special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:true addr in
        Coverage.record_pc t.pcs pc;
        if write t addr (Array.unsafe_get regs rs) then
          go t (pc + 1) (n + 1) (cyc + 1 + lat) ld (st + 1) br
        else overflow t pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
      end
    | Decode.D_br (c, rs, rt, target) ->
      let taken =
        Insn.eval_cmp c (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)
      in
      (* One associative search both tests the spawn predicate and — for
         rejected branches — commits the counts+exercise effect. A BTB
         miss is always a candidate: the insertion and its accounting
         belong to the instrumented tier. *)
      if t.spawning && Btb.probe_exercise t.btb pc ~taken ~threshold:t.threshold
      then begin
        finish t pc n cyc ld st br;
        if taken then Special_branch_taken else Special_branch_nontaken
      end
      else begin
        record_edge t pc taken;
        Coverage.record_pc t.pcs pc;
        go t
          (if taken then target else pc + 1)
          (n + 1) (cyc + 1) ld st (br + 1)
      end
    | Decode.D_jmp target ->
      Coverage.record_pc t.pcs pc;
      go t target (n + 1) (cyc + 1) ld st br
    | Decode.D_call target ->
      let sp = Array.unsafe_get regs Reg.sp - 1 in
      if blocked t sp then special t pc n cyc ld st br
      else begin
        Array.unsafe_set regs Reg.sp sp;
        let lat = latency t ~write:true sp in
        Coverage.record_pc t.pcs pc;
        if write t sp (pc + 1) then
          go t target (n + 1) (cyc + 1 + lat) ld (st + 1) br
        else overflow t pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
      end
    | Decode.D_ret ->
      let sp = Array.unsafe_get regs Reg.sp in
      if blocked t sp then special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false sp in
        let ra = read t sp in
        Array.unsafe_set regs Reg.sp (sp + 1);
        Coverage.record_pc t.pcs pc;
        go t ra (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_push rs ->
      let sp = Array.unsafe_get regs Reg.sp - 1 in
      if blocked t sp then special t pc n cyc ld st br
      else begin
        Array.unsafe_set regs Reg.sp sp;
        let lat = latency t ~write:true sp in
        Coverage.record_pc t.pcs pc;
        if write t sp (Array.unsafe_get regs rs) then
          go t (pc + 1) (n + 1) (cyc + 1 + lat) ld (st + 1) br
        else overflow t pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
      end
    | Decode.D_pop rd ->
      let sp = Array.unsafe_get regs Reg.sp in
      if blocked t sp then special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false sp in
        let v = read t sp in
        Array.unsafe_set regs Reg.sp (sp + 1);
        Cpu.write_reg regs rd v;
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_checkz (rs, _site) ->
      (* Passing check: no report, plain fallthrough. A zero value files a
         report (detector machinery) — instrumented tier's job. *)
      if Array.unsafe_get regs rs = 0 then special t pc n cyc ld st br
      else begin
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_pred _ ->
      (* The predicate is false outside consistency-fix blocks, making this
         a fallthrough; a live predicate means a fix block is executing
         (an NT-Path's entry stub) and the instrumented tier must run it. *)
      if t.ctx.Context.pred then special t pc n cyc ld st br
      else begin
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1) ld st br
      end
    | Decode.D_clearpred ->
      t.ctx.Context.pred <- false;
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_nop ->
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    | Decode.D_syscall _ | Decode.D_watch _ | Decode.D_unwatch _
    | Decode.D_halt ->
      special t pc n cyc ld st br
  end

let make ?(obs = false) machine ctx coverage =
  let dcode = machine.Machine.dcode in
  {
    machine;
    ctx;
    coverage;
    dcode;
    mem = machine.Machine.mem;
    watch = machine.Machine.watch;
    btb = machine.Machine.btb;
    regs = ctx.Context.regs;
    code_len = Array.length dcode;
    l1 = ctx.Context.l1;
    sandbox = None;
    owner = Cache.committed_owner;
    pcs = Coverage.pc_sink coverage ~nt:false;
    watching = false;
    selective = false;
    spawning = false;
    threshold = 0;
    limit = 0;
    boundary = 0;
    budget = 0;
    retired = 0;
    memo_hits = 0;
    fast_insns = 0;
    fast_segments = 0;
    fast_branches = 0;
    obs;
    deopts = Array.make 7 0;
  }

(* One fast segment of up to [budget] instructions from [ctx.pc]. Kept out
   of line: inlined into the driver, its three pointer stores would each be
   copied (with their write barriers) into every continuation. *)
let[@inline never] segment t ~budget =
  let ctx = t.ctx in
  t.l1 <- ctx.Context.l1;
  t.sandbox <- ctx.Context.sandbox;
  t.owner <- Context.path_id ctx;
  t.pcs <- Coverage.pc_sink t.coverage ~nt:(Context.is_sandboxed ctx);
  t.watching <- not (Watchpoints.is_empty t.watch);
  t.budget <- budget;
  t.memo_hits <- 0;
  let stop = go t ctx.Context.pc 0 0 0 0 0 in
  if t.memo_hits > 0 then Cache.add_hits t.l1 t.memo_hits;
  stop

(* Observatory: why did the fast tier hand this pc to the instrumented
   tier? The fast tier stops *before* executing a special instruction, so
   the cause is readable from the decoded image at the current pc. *)
let count_deopt t cause =
  t.deopts.(cause) <- t.deopts.(cause) + 1

let[@inline never] classify_deopt t =
  let pc = t.ctx.Context.pc in
  let regs = t.regs in
  (* a valid operand stopped the fast tier only because it is watched *)
  let access addr =
    if Memory.is_valid t.mem addr then d_watch else d_fault
  in
  let cause = function
    | Decode.D_syscall _ -> d_syscall
    | Decode.D_watch _ | Decode.D_unwatch _ -> d_watch
    | Decode.D_checkz _ -> d_detector
    | Decode.D_load (_, base, off) | Decode.D_store (_, base, off) ->
      access (regs.(base) + off)
    | Decode.D_call _ | Decode.D_push _ -> access (regs.(Reg.sp) - 1)
    | Decode.D_ret | Decode.D_pop _ -> access regs.(Reg.sp)
    | Decode.D_div _ | Decode.D_mod _ | Decode.D_divi _ | Decode.D_modi _ ->
      (* a zero divisor *)
      d_fault
    | _ ->
      (* a live predicate (an NT-Path's consistency-fix block) or a halt *)
      d_other
  in
  count_deopt t
    (if pc < 0 || pc >= t.code_len then d_fault else cause t.dcode.(pc))

(* The tier protocol. Before every segment or instrumented step: the limit,
   then the caller's tick once its boundary is reached, then the gate. A
   segment's budget is clamped to the limit and the boundary, so both fire
   at the same retired-instruction counts as in a single-tier run. *)
let rec drive_loop t h =
  let ctx = t.ctx in
  let insns = ctx.Context.stats.Context.insns in
  if insns >= t.limit then Limit
  else begin
    if insns >= t.boundary then t.boundary <- h.tick ();
    let machine = t.machine in
    let bound = if t.limit < t.boundary then t.limit else t.boundary in
    if
      t.selective && bound > insns
      && (match machine.Machine.store_hook with None -> true | Some _ -> false)
    then begin
      let branches = ctx.Context.stats.Context.branches in
      let stop = segment t ~budget:(bound - insns) in
      let retired = t.retired in
      if retired > 0 then begin
        (* The segment bumped the context's stats itself; the global index
           (report provenance) follows here, before any instrumented-tier
           report. *)
        machine.Machine.insn_index <- machine.Machine.insn_index + retired;
        t.fast_insns <- t.fast_insns + retired;
        t.fast_branches <-
          t.fast_branches + ctx.Context.stats.Context.branches - branches;
        t.fast_segments <- t.fast_segments + 1
      end;
      match stop with
      | Budget -> drive_loop t h
      | Special ->
        if t.obs then classify_deopt t;
        step t h (-1)
      | Special_branch_taken ->
        if t.obs then count_deopt t d_branch;
        step t h 1
      | Special_branch_nontaken ->
        if t.obs then count_deopt t d_branch;
        step t h 0
      | Overflowed -> Overflow
    end
    else begin
      (* Pinned: selective execution is off for this drive, a store hook
         (DIDUCE) needs the instrumented tier's every store, or the tick
         asked to run again before the next instruction (a reset interval
         of 0), which leaves no budget for a segment. Armed watchpoints do
         not pin: the fast tier stops only before a watched access. *)
      if t.obs && t.selective then count_deopt t d_pinned;
      step t h (-1)
    end
  end

(* One instruction on the instrumented tier. [predicted] is the fast tier's
   evaluation of a spawn-candidate branch's condition (1 taken, 0 not taken,
   -1 none) — an int, not a bool option, so a step allocates nothing. *)
and step t h predicted =
  let ctx = t.ctx in
  Coverage.record_pc
    (Coverage.pc_sink t.coverage ~nt:(Context.is_sandboxed ctx))
    ctx.Context.pc;
  match Cpu.step t.machine ctx with
  | Cpu.Ev_normal -> drive_loop t h
  | Cpu.Ev_branch ->
    if predicted >= 0 && (predicted = 1) <> ctx.Context.br_taken then
      (* Both tiers evaluate the same compare on the same registers;
         disagreement means an interpreter bug, not a program outcome. *)
      failwith "Fast_loop: the fast tier diverged at a branch";
    h.branch ();
    drive_loop t h
  | Cpu.Ev_syscall sys -> if h.syscall sys then drive_loop t h else Unsafe sys
  | Cpu.Ev_exit status -> Exited status
  | Cpu.Ev_halt -> Halted
  | Cpu.Ev_fault f -> Fault f
  | Cpu.Ev_overflow -> Overflow

let drive t h ~selective ~spawning ~threshold ~limit =
  t.selective <- selective;
  t.spawning <- spawning;
  t.threshold <- threshold;
  t.limit <- limit;
  t.boundary <- 0;
  t.fast_insns <- 0;
  t.fast_segments <- 0;
  t.fast_branches <- 0;
  Array.fill t.deopts 0 (Array.length t.deopts) 0;
  drive_loop t h

let fast_insns t = t.fast_insns
let fast_segments t = t.fast_segments

let record_telemetry t tel =
  if t.fast_insns > 0 then begin
    Telemetry.count tel "selective.fast_insns" t.fast_insns;
    Telemetry.count tel "selective.segments" t.fast_segments;
    (* conditional branches retired on the fast tier *)
    Telemetry.count tel "selective.fast_branch_bits" t.fast_branches
  end;
  if t.obs then begin
    (* Deopt-cause histogram and tier pinning, exported only when the
       observatory is armed so unobserved telemetry output is unchanged. *)
    Telemetry.count tel "obs.deopt.branch" t.deopts.(d_branch);
    Telemetry.count tel "obs.deopt.syscall" t.deopts.(d_syscall);
    Telemetry.count tel "obs.deopt.watch" t.deopts.(d_watch);
    Telemetry.count tel "obs.deopt.detector" t.deopts.(d_detector);
    Telemetry.count tel "obs.deopt.fault" t.deopts.(d_fault);
    Telemetry.count tel "obs.deopt.other" t.deopts.(d_other);
    Telemetry.count tel "obs.pinned_insns" t.deopts.(d_pinned)
  end
