(* The selective fast tier: a stripped interpreter for the taken path and
   NT-Paths alike.

   This is the engine's answer to detection bloat (coverage-preserving
   selective instrumentation, as in HeXcite): execution runs here with no
   detector hooks, no watchpoint probes, no store-hook dispatch and no
   recorder branches — just registers, memory, cache timing and coverage
   bits. The moment an instruction needs any of the heavy machinery (a
   syscall, a watch/unwatch, a detector check that would file a report, a
   fault, or a branch whose cold-edge counter makes it a spawn candidate)
   the loop stops *before* that instruction and the caller executes it on
   the fully instrumented tier ([Cpu.step]).
   Deoptimization, not re-execution: no instruction ever runs twice, so
   every observable — architectural state, stats, cache/BTB contents,
   coverage, reports, recorder stream, program output — is bit-for-bit what
   the instrumented tier alone would produce.

   Correctness of the stop-before discipline rests on every case below
   either (a) committing *exactly* the state transitions the instrumented
   tier commits for that instruction, or (b) committing *nothing* and
   stopping. The pre-checks make (b) possible without exceptions: memory
   operands are validated with [Memory.is_valid] (the exact complement of
   [Memory.check]'s raise condition) and divisors checked against zero
   before any side effect. The register effects themselves are [Cpu]'s own
   inlined helpers, so the two tiers share one body of ISA semantics.

   One case commits an instruction and still stops: a sandboxed store can
   overflow the path's L1 line budget, which is only discoverable *by doing
   the write*. The instrumented tier retires that instruction (stats and
   latency charged, pc not advanced) and raises; [Overflow] reproduces
   exactly that committed state. The taken path never has a sandbox, so it
   cannot reach this stop.

   Spawn-candidate detection probes the BTB side-effect-free
   ([Btb.probe_exercise]). Within a fast segment a branch's forced-edge
   counter is monotone non-decreasing (the engine only increments non-taken
   edge counters when it spawns, and spawns only happen on the instrumented
   tier), so probing possibly-stale counters is conservative: a branch may
   deoptimize spuriously (the instrumented tier then decides for real), but
   a spawn can never be missed. BTB misses always deoptimize for the same
   reason — the insertion and its accounting belong to the instrumented
   tier's [Btb.counts]/[Btb.exercise] pair; for exercised non-candidates
   [Btb.probe_exercise] commits that pair's exact observable effect in the
   same single associative search that tested the predicate. A [max_int]
   threshold makes every branch a candidate and touches nothing: the
   deopt-at-every-branch setting.

   Which tier a segment serves is data, read from the context at segment
   entry ([run]): no sandbox is the taken path (plain memory, committed
   cache ownership, taken-path coverage); a sandbox is an NT-Path (buffered
   memory, speculative ownership under the path's id, NT-Path coverage).
   Only memory accesses and branch-edge records test the tier; the
   per-instruction statement record goes to a sink picked at entry.

   The loop is tail-recursive over plain integer state (pc and the five
   stat deltas), so the per-instruction bookkeeping lives in registers; the
   context's stats are updated once, at segment exit.

   Performance structure: the handle is a flat mutable record and the
   interpreter loop is a *top-level* recursive function over it. Keeping
   the loop (and its helpers) at top level matters twice over, without
   flambda: a segment call allocates nothing (per-call parameters are
   record stores, exit state flushes straight into the context, every
   [stop] constructor is constant), and every call in the per-instruction
   path — the recursive step, the latency probe, the coverage/BTB/sandbox
   hooks — is a known direct call. The closure-tree variant of this file
   cost both ways: per-segment closure records (~300M minor words per
   sweep; NT-Paths deoptimize at every watch, check and virtualised
   syscall) and, worse, helpers captured from an enclosing closure compile
   to unknown-function applications (the caml_apply helpers) on every
   instruction.

   The callers guarantee before entry ([Engine.run] for the taken path,
   [Nt_path.run] for NT-Paths): no watchpoints are armed, no store hook is
   attached, and every per-branch action the fast tier omits (random
   spawning, profiled fixing, spawn-everywhere, forced cold edges inside
   NT-Paths) is covered by [threshold = max_int]. *)

type stop =
  | Budget  (** segment budget exhausted *)
  | Special
      (** the instruction at [ctx.pc] needs the instrumented tier; nothing
          about it has been committed *)
  | Special_branch_taken
      (** a spawn-candidate conditional branch whose condition the fast tier
          evaluated as taken (cross-checked against the instrumented tier) *)
  | Special_branch_nontaken
      (** like [Special_branch_taken], condition evaluated as not taken *)
  | Overflow
      (** a sandboxed store overflowed the path's L1 budget; the store has
          retired in place *)

type t = {
  machine : Machine.t;
  ctx : Context.t;
  coverage : Coverage.t;
  dcode : Decode.t array;
  mem : Memory.t;
  words : int array;
  btb : Btb.t;
  regs : int array;
  code_len : int;
  (* The tier, re-read from the context at every segment ([run]): an NT
     arena's context is retargeted per spawn (CMP spawns land on idle
     cores' L1s, the 8-bit path id is fresh per spawn). *)
  mutable l1 : Cache.t;
  mutable sandbox : Context.sandbox option;
  mutable owner : int;
  mutable pcs : Coverage.pc_sink;
      (* the statement-coverage kind, so the per-instruction record does
         not test the tier *)
  (* per-segment parameters and results *)
  mutable spawning : bool;
  mutable threshold : int;
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
}

let[@inline always] latency t ~write addr =
  if Cache.memo_probe t.l1 addr ~owner:t.owner ~write then begin
    t.memo_hits <- t.memo_hits + 1;
    0
  end
  else
    Machine.access_latency t.machine t.l1 ~owner:t.owner ~write
      ~speculative:(match t.sandbox with None -> false | Some _ -> true)
      addr

let[@inline always] read t addr =
  match t.sandbox with
  | None -> Array.unsafe_get t.words addr
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
  Overflow

(* [pc]..[br] are the live per-instruction state; every executed
   instruction mirrors the instrumented tier's per-pc coverage record
   (engine and NT-Path loop tops) and the insns/cycles bump of
   [Cpu.step]. *)
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
      if not (Memory.is_valid t.mem addr) then special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false addr in
        Cpu.write_reg regs rd (read t addr);
        Coverage.record_pc t.pcs pc;
        go t (pc + 1) (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_store (rs, base, off) ->
      let addr = Array.unsafe_get regs base + off in
      if not (Memory.is_valid t.mem addr) then special t pc n cyc ld st br
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
      if not (Memory.is_valid t.mem sp) then special t pc n cyc ld st br
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
      if not (Memory.is_valid t.mem sp) then special t pc n cyc ld st br
      else begin
        let lat = latency t ~write:false sp in
        let ra = read t sp in
        Array.unsafe_set regs Reg.sp (sp + 1);
        Coverage.record_pc t.pcs pc;
        go t ra (n + 1) (cyc + 1 + lat) (ld + 1) st br
      end
    | Decode.D_push rs ->
      let sp = Array.unsafe_get regs Reg.sp - 1 in
      if not (Memory.is_valid t.mem sp) then special t pc n cyc ld st br
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
      if not (Memory.is_valid t.mem sp) then special t pc n cyc ld st br
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

let make machine ctx coverage =
  let dcode = machine.Machine.dcode in
  {
    machine;
    ctx;
    coverage;
    dcode;
    mem = machine.Machine.mem;
    words = machine.Machine.mem.Memory.words;
    btb = machine.Machine.btb;
    regs = ctx.Context.regs;
    code_len = Array.length dcode;
    l1 = ctx.Context.l1;
    sandbox = None;
    owner = Cache.committed_owner;
    pcs = Coverage.pc_sink coverage ~nt:false;
    spawning = false;
    threshold = 0;
    budget = 0;
    retired = 0;
    memo_hits = 0;
  }

let run t ~spawning ~threshold ~budget =
  let ctx = t.ctx in
  t.l1 <- ctx.Context.l1;
  t.sandbox <- ctx.Context.sandbox;
  t.owner <- Context.path_id ctx;
  t.pcs <- Coverage.pc_sink t.coverage ~nt:(Context.is_sandboxed ctx);
  t.spawning <- spawning;
  t.threshold <- threshold;
  t.budget <- budget;
  t.memo_hits <- 0;
  let stop = go t ctx.Context.pc 0 0 0 0 0 in
  if t.memo_hits > 0 then Cache.add_hits t.l1 t.memo_hits;
  stop

let retired t = t.retired
