(* The run driver and the ISA's one body: the loop behind the taken path,
   NT-Paths, the software PathExpander and the plain baseline run.

   [exec] is the only place that spells out an ordinary instruction's
   effect: registers, memory through [read]/[write]/[latency], control
   flow, the stat deltas and statement coverage. It runs in segments with
   no detector hooks and no store-hook dispatch
   (coverage-preserving selective instrumentation, as in HeXcite). The
   moment an instruction needs more — a syscall, a watch/unwatch, a halt,
   a check that would file a report, a live consistency-fix block, a
   fault, an access to a watched word, a store into the store hook's
   range, or a branch whose cold-edge counter makes it a spawn candidate —
   the segment stops *before* it, having committed nothing of it. The
   driver then runs that one instruction through the hooked step
   ([step]/[settle]): [Cpu]'s hooks (reports, the store hook, syscalls,
   watch and unwatch, halt), the fault events and a spawn candidate's
   branch bookkeeping, after which a one-instruction segment of the same
   body commits the instruction's own effect. Nothing runs twice and
   nothing is spelled out twice, so every observable — architectural
   state, stats, cache/BTB contents, coverage, reports (with their
   cycles), output — is what it would be with every instruction on the hooked
   step, which is how a drive runs while its tick leaves no budget (a tick
   that returns the current retired count pins every instruction there:
   a zero counter-reset interval, or a test's differential).

   Stopping before is possible without exceptions: memory operands are
   validated with [Memory.is_valid] (the exact complement of
   [Memory.check]'s raise) and divisors checked against zero before any
   side effect. While any watchpoint is armed ([watching], read at segment
   entry: the watch set only changes on the hooked step or in a squash,
   both between segments), a memory operand is also looked up in the
   watch unit's per-word filter; the filter ignores the range's mode, so a
   stop before a write to a read-watched word is spurious, never wrong.
   The store hook's range is read at segment entry the same way. One case
   commits and still stops: a sandboxed store that overflows the path's L1
   line budget, only discoverable by doing the write. It retires in place
   (stats and latency charged, pc not advanced) and the segment ends
   [Overflowed].

   Spawn candidates are found by a side-effect-free BTB probe
   ([Btb.probe_exercise]). Within a segment a forced-edge counter never
   decreases (spawns only happen in the branch hook), so stale counters
   can only stop a segment spuriously, never miss a spawn. A BTB miss
   always stops: the insertion belongs to the branch hook's
   [Btb.counts]/[Btb.exercise] pair, whose exact effect the probe commits
   for exercised non-candidates. A [max_int] threshold makes every branch
   a candidate and touches nothing; the hooked step's one-instruction
   segments use it, so the body's evaluation of a branch is its outcome.

   The tier is data, read from the context at drive entry ([bind]): no
   sandbox is the taken path (plain memory, committed cache ownership,
   taken-path coverage); a sandbox is an NT-Path (buffered memory,
   speculative ownership under the path's id, NT-Path coverage).

   Performance structure: [go]/[exec] are *top-level* tail-recursive
   functions over a flat mutable handle and plain integer state (pc and
   five stat deltas, flushed into the context once per segment). Without
   flambda that matters twice: a segment allocates nothing (parameters are
   record stores, every [stop] constructor is constant), and every call on
   the per-instruction path is a known direct call. A closure-tree variant
   cost ~300M minor words per sweep and caml_apply on every instruction.
   The driver ([drive_loop]/[step]) is top level for the same reason. *)

(* How a segment ended. Every stop but [Budget] and [Overflowed] leaves the
   instruction at [ctx.pc] uncommitted. *)
type stop =
  | Budget
      (* the budget ran out; in a one-instruction segment, the instruction
         committed *)
  | Special
      (* a bad pc, or an instruction only the hooked step runs: a syscall,
         watch, unwatch or halt, a failing checkz, a live fix block *)
  | Zero_divisor
  | Blocked_load
      (* the memory operand [t.addr] faults or is watched *)
  | Blocked_store
      (* [t.addr] faults, is watched or is in the store hook's range;
         [t.value] is the word the store would write *)
  | Branch
      (* a spawn candidate; the body left its pc, direction and target in
         the context's [br_*] fields *)
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
  program : Program.t;  (* for the immediates that live in its pool *)
  code : int array;  (* the program's packed words, run in place *)
  mem : Memory.t;
  watch : Watchpoints.t;
  btb : Btb.t;
  regs : int array;
  code_len : int;
  (* The tier, re-read from the context at every drive ([bind]): an NT
     arena's context is retargeted per spawn (CMP spawns land on idle
     cores' L1s, the 8-bit path id is fresh per spawn), and a spawn is one
     drive. *)
  mutable l1 : Cache.t;
  mutable sandbox : Context.sandbox option;
  mutable owner : int;
  mutable pcs : Coverage.pc_sink;
      (* the statement-coverage kind, so the per-instruction record does
         not test the tier *)
  mutable watching : bool;  (* some watchpoint is armed *)
  mutable hook_lo : int;
  mutable hook_hi : int;
      (* the store hook's range; empty ([0, 0)) without a hook *)
  (* per-drive parameters *)
  mutable spawning : bool;
  mutable threshold : int;
  mutable limit : int;
  mutable boundary : int;  (* where the caller's tick runs next *)
  (* per-segment parameters and results *)
  mutable probe : bool;  (* branches probe the BTB *)
  mutable cut : int;  (* the probe's threshold *)
  mutable budget : int;
  mutable retired : int;
  mutable addr : int;  (* a blocked access's operand *)
  mutable value : int;  (* a blocked store's word *)
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
      (* observatory only: hooked steps by cause, indexed by the [d_*]
         constants below *)
}

let d_branch = 0
let d_syscall = 1
let d_watch = 2
let d_detector = 3
let d_fault = 4
let d_other = 5
let d_pinned = 6

(* Register effects. Register reads go straight to the array: [write_reg]
   is the r0 rule — [Reg.zero]'s slot is never written (see also
   [Context.set_reg]), so it always reads 0. The annotation matters:
   inlining copies the body as compiled, and an unannotated ['a array]
   store would be a generic one (float-array tag test plus [caml_modify])
   in every arm. *)
let[@inline always] write_reg (regs : int array) rd (v : int) =
  if rd <> 0 then Array.unsafe_set regs rd v

(* The packed word's register operands: [dst] writes the first, [src1]..
   [src3] read the first to third. *)
let[@inline always] dst regs w v = write_reg regs (Program.r1 w) v
let[@inline always] src1 (regs : int array) w =
  Array.unsafe_get regs (Program.r1 w)

let[@inline always] src2 (regs : int array) w =
  Array.unsafe_get regs (Program.r2 w)

let[@inline always] src3 (regs : int array) w =
  Array.unsafe_get regs (Program.r3 w)


let[@inline always] latency t ~write addr =
  if Cache.memo_probe t.l1 addr ~owner:t.owner ~write then begin
    t.memo_hits <- t.memo_hits + 1;
    0
  end
  else
    Machine.access_latency t.machine t.l1 ~owner:t.owner ~write
      ~speculative:(match t.sandbox with None -> false | Some _ -> true)
      addr

(* The body must not touch [addr] unhooked: the access would fault, or it
   hits a watched word and may file a report. *)
let[@inline always] blocked t addr =
  (not (Memory.is_valid t.mem addr))
  || (t.watching && Watchpoints.watched t.watch addr)

(* A store into the store hook's range also needs the hooked step. *)
let[@inline always] blocked_store t addr =
  blocked t addr || (addr < t.hook_hi && addr >= t.hook_lo)

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

(* The exits are cold (once per segment): kept out of line so the loop's
   hot arms stay compact. *)
let[@inline never] stop_at t stop pc n cyc ld st br =
  finish t pc n cyc ld st br;
  stop

let[@inline never] branch_stop t pc taken target n cyc ld st br =
  let ctx = t.ctx in
  ctx.Context.br_pc <- pc;
  ctx.Context.br_taken <- taken;
  ctx.Context.br_target <- target;
  stop_at t Branch pc n cyc ld st br

(* [pc]..[br] are the live per-instruction state. *)
let rec go t pc n cyc ld st br =
  if n >= t.budget then stop_at t Budget pc n cyc ld st br
  else if pc < 0 || pc >= t.code_len then stop_at t Special pc n cyc ld st br
  else exec t (Array.unsafe_get t.code pc) pc n cyc ld st br

(* The body: [w] is the packed word at [pc], dispatched once on its
   opcode. Each ALU and compare arm calls its operator's function in
   [Insn], where the semantics live. An overflowing store retires in
   place: its stats and latency go into the deltas, the pc does not
   advance. *)
and exec t w pc n cyc ld st br =
  let regs = t.regs in
  if Program.is_pred w then
    (* The predicate is false outside consistency-fix blocks, making this
       a fallthrough; a live predicate means a fix block is executing (an
       NT-Path's entry stub), whose stores the store hook must tell from
       the program's. *)
    if t.ctx.Context.pred then stop_at t Special pc n cyc ld st br
    else begin
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    end
  else
  match Program.opcode w with
  | Program.Op_add ->
    dst regs w (Insn.add (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sub ->
    dst regs w (Insn.sub (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_mul ->
    dst regs w (Insn.mul (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_div ->
    let b = src3 regs w in
    if b = 0 then stop_at t Zero_divisor pc n cyc ld st br
    else begin
      dst regs w (Insn.div (src2 regs w) b);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    end
  | Program.Op_mod ->
    let b = src3 regs w in
    if b = 0 then stop_at t Zero_divisor pc n cyc ld st br
    else begin
      dst regs w (Insn.rem (src2 regs w) b);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    end
  | Program.Op_and ->
    dst regs w (Insn.logand (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_or ->
    dst regs w (Insn.logor (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_xor ->
    dst regs w (Insn.logxor (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_shl ->
    dst regs w (Insn.shl (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_shr ->
    dst regs w (Insn.shr (src2 regs w) (src3 regs w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_addi ->
    dst regs w (Insn.add (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_subi ->
    dst regs w (Insn.sub (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_muli ->
    dst regs w (Insn.mul (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_divi ->
    let b = Program.imm t.program w in
    if b = 0 then stop_at t Zero_divisor pc n cyc ld st br
    else begin
      dst regs w (Insn.div (src2 regs w) b);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    end
  | Program.Op_modi ->
    let b = Program.imm t.program w in
    if b = 0 then stop_at t Zero_divisor pc n cyc ld st br
    else begin
      dst regs w (Insn.rem (src2 regs w) b);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    end
  | Program.Op_andi ->
    dst regs w (Insn.logand (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_ori ->
    dst regs w (Insn.logor (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_xori ->
    dst regs w (Insn.logxor (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_shli ->
    dst regs w (Insn.shl (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_shri ->
    dst regs w (Insn.shr (src2 regs w) (Program.imm t.program w));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_seq ->
    dst regs w (Bool.to_int (Insn.eq (src2 regs w) (src3 regs w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sne ->
    dst regs w (Bool.to_int (Insn.ne (src2 regs w) (src3 regs w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_slt ->
    dst regs w (Bool.to_int (Insn.lt (src2 regs w) (src3 regs w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sle ->
    dst regs w (Bool.to_int (Insn.le (src2 regs w) (src3 regs w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sgt ->
    dst regs w (Bool.to_int (Insn.gt (src2 regs w) (src3 regs w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sge ->
    dst regs w (Bool.to_int (Insn.ge (src2 regs w) (src3 regs w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_seqi ->
    dst regs w (Bool.to_int (Insn.eq (src2 regs w) (Program.imm t.program w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_snei ->
    dst regs w (Bool.to_int (Insn.ne (src2 regs w) (Program.imm t.program w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_slti ->
    dst regs w (Bool.to_int (Insn.lt (src2 regs w) (Program.imm t.program w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_slei ->
    dst regs w (Bool.to_int (Insn.le (src2 regs w) (Program.imm t.program w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sgti ->
    dst regs w (Bool.to_int (Insn.gt (src2 regs w) (Program.imm t.program w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sgei ->
    dst regs w (Bool.to_int (Insn.ge (src2 regs w) (Program.imm t.program w)));
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_beq ->
    branch t w (Insn.eq (src1 regs w) (src2 regs w)) pc n cyc ld st br
  | Program.Op_bne ->
    branch t w (Insn.ne (src1 regs w) (src2 regs w)) pc n cyc ld st br
  | Program.Op_blt ->
    branch t w (Insn.lt (src1 regs w) (src2 regs w)) pc n cyc ld st br
  | Program.Op_ble ->
    branch t w (Insn.le (src1 regs w) (src2 regs w)) pc n cyc ld st br
  | Program.Op_bgt ->
    branch t w (Insn.gt (src1 regs w) (src2 regs w)) pc n cyc ld st br
  | Program.Op_bge ->
    branch t w (Insn.ge (src1 regs w) (src2 regs w)) pc n cyc ld st br
  | Program.Op_li ->
    dst regs w (Program.imm t.program w);
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_mov ->
    dst regs w (src2 regs w);
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_ld ->
    let addr = src2 regs w + Program.imm t.program w in
    if blocked t addr then begin
      t.addr <- addr;
      stop_at t Blocked_load pc n cyc ld st br
    end
    else begin
      let lat = latency t ~write:false addr in
      dst regs w (read t addr);
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1 + lat) (ld + 1) st br
    end
  | Program.Op_st ->
    let addr = src2 regs w + Program.imm t.program w in
    let v = src1 regs w in
    if blocked_store t addr then begin
      t.addr <- addr;
      t.value <- v;
      stop_at t Blocked_store pc n cyc ld st br
    end
    else begin
      let lat = latency t ~write:true addr in
      Coverage.record_pc t.pcs pc;
      if write t addr v then
        go t (pc + 1) (n + 1) (cyc + 1 + lat) ld (st + 1) br
      else stop_at t Overflowed pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
    end
  | Program.Op_jmp ->
    Coverage.record_pc t.pcs pc;
    go t (Program.target w) (n + 1) (cyc + 1) ld st br
  | Program.Op_call ->
    let sp = Array.unsafe_get regs Reg.sp - 1 in
    if blocked_store t sp then begin
      t.addr <- sp;
      t.value <- pc + 1;
      stop_at t Blocked_store pc n cyc ld st br
    end
    else begin
      Array.unsafe_set regs Reg.sp sp;
      let lat = latency t ~write:true sp in
      Coverage.record_pc t.pcs pc;
      if write t sp (pc + 1) then
        go t (Program.target w) (n + 1) (cyc + 1 + lat) ld (st + 1) br
      else stop_at t Overflowed pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
    end
  | Program.Op_ret ->
    let sp = Array.unsafe_get regs Reg.sp in
    if blocked t sp then begin
      t.addr <- sp;
      stop_at t Blocked_load pc n cyc ld st br
    end
    else begin
      let lat = latency t ~write:false sp in
      let ra = read t sp in
      Array.unsafe_set regs Reg.sp (sp + 1);
      Coverage.record_pc t.pcs pc;
      go t ra (n + 1) (cyc + 1 + lat) (ld + 1) st br
    end
  | Program.Op_push ->
    let sp = Array.unsafe_get regs Reg.sp - 1 in
    let v = src1 regs w in
    if blocked_store t sp then begin
      t.addr <- sp;
      t.value <- v;
      stop_at t Blocked_store pc n cyc ld st br
    end
    else begin
      Array.unsafe_set regs Reg.sp sp;
      let lat = latency t ~write:true sp in
      Coverage.record_pc t.pcs pc;
      if write t sp v then go t (pc + 1) (n + 1) (cyc + 1 + lat) ld (st + 1) br
      else stop_at t Overflowed pc (n + 1) (cyc + 1 + lat) ld (st + 1) br
    end
  | Program.Op_pop ->
    let sp = Array.unsafe_get regs Reg.sp in
    if blocked t sp then begin
      t.addr <- sp;
      stop_at t Blocked_load pc n cyc ld st br
    end
    else begin
      let lat = latency t ~write:false sp in
      let v = read t sp in
      Array.unsafe_set regs Reg.sp (sp + 1);
      dst regs w v;
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1 + lat) (ld + 1) st br
    end
  | Program.Op_chkz ->
    (* A passing check is a fallthrough; a failing one files a report. *)
    if src1 regs w = 0 then stop_at t Special pc n cyc ld st br
    else begin
      Coverage.record_pc t.pcs pc;
      go t (pc + 1) (n + 1) (cyc + 1) ld st br
    end
  | Program.Op_clearpred ->
    t.ctx.Context.pred <- false;
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_nop ->
    Coverage.record_pc t.pcs pc;
    go t (pc + 1) (n + 1) (cyc + 1) ld st br
  | Program.Op_sys | Program.Op_watch | Program.Op_unwatch | Program.Op_halt ->
    stop_at t Special pc n cyc ld st br

(* A conditional branch at [pc] whose condition evaluated to [taken]. One
   associative search both tests the spawn predicate and — for rejected
   branches — commits the counts+exercise effect. A BTB miss is always a
   candidate: the insertion and its accounting belong to the branch
   hook. *)
and branch t w taken pc n cyc ld st br =
  if t.probe && Btb.probe_exercise t.btb pc ~taken ~threshold:t.cut then
    branch_stop t pc taken (Program.target w) n cyc ld st br
  else begin
    record_edge t pc taken;
    Coverage.record_pc t.pcs pc;
    go t
      (if taken then Program.target w else pc + 1)
      (n + 1) (cyc + 1) ld st (br + 1)
  end

let make ?(obs = false) machine ctx coverage =
  let program = machine.Machine.program in
  {
    machine;
    ctx;
    coverage;
    program;
    code = program.Program.code;
    mem = machine.Machine.mem;
    watch = machine.Machine.watch;
    btb = machine.Machine.btb;
    regs = ctx.Context.regs;
    code_len = Program.length program;
    l1 = ctx.Context.l1;
    sandbox = None;
    owner = Cache.committed_owner;
    pcs = Coverage.pc_sink coverage ~nt:false;
    watching = false;
    hook_lo = 0;
    hook_hi = 0;
    spawning = false;
    threshold = 0;
    limit = 0;
    boundary = 0;
    probe = false;
    cut = 0;
    budget = 0;
    retired = 0;
    addr = 0;
    value = 0;
    memo_hits = 0;
    fast_insns = 0;
    fast_segments = 0;
    fast_branches = 0;
    obs;
    deopts = Array.make 7 0;
  }

(* The tier, read from the context once per drive. Kept out of line: its
   three pointer stores would each be copied (with their write barriers)
   into every caller. *)
let[@inline never] bind t =
  let ctx = t.ctx in
  t.l1 <- ctx.Context.l1;
  t.sandbox <- ctx.Context.sandbox;
  t.owner <- Context.path_id ctx;
  t.pcs <- Coverage.pc_sink t.coverage ~nt:(Context.is_sandboxed ctx)

(* Segment entry: the hooks' reach, which a hooked step can change between
   segments (a watch or unwatch, a hook attaching a store hook). A segment
   that commits an access whose hooks have run reaches none. *)
let enter t ~hooked =
  t.watching <- hooked && not (Watchpoints.is_empty t.watch);
  (match t.machine.Machine.store_hook with
   | Some hook when hooked ->
     t.hook_lo <- hook.Machine.lo;
     t.hook_hi <- hook.Machine.hi
   | Some _ | None ->
     t.hook_lo <- 0;
     t.hook_hi <- 0);
  t.memo_hits <- 0

let leave t = if t.memo_hits > 0 then Cache.add_hits t.l1 t.memo_hits

(* One fast segment of up to [budget] instructions from [ctx.pc]. *)
let segment t ~budget =
  enter t ~hooked:true;
  t.probe <- t.spawning;
  t.cut <- t.threshold;
  t.budget <- budget;
  let stop = go t t.ctx.Context.pc 0 0 0 0 0 in
  leave t;
  stop

(* A one-instruction segment of the body on [w], the word at [ctx.pc] or a
   live fix block's inner one. Every branch stops before committing.
   [~hooked:false] commits an access whose hooks have run. *)
let one t w ~hooked =
  enter t ~hooked;
  t.probe <- true;
  t.cut <- max_int;
  t.budget <- 1;
  let stop = exec t w t.ctx.Context.pc 0 0 0 0 0 in
  leave t;
  stop

(* A hooked instruction that is not committed by the body still retires:
   one instruction, one cycle. *)
let retire ctx =
  let stats = ctx.Context.stats in
  stats.Context.insns <- stats.Context.insns + 1;
  stats.Context.cycles <- stats.Context.cycles + 1

(* The hooked step of [w] after the body stopped before it with [stop]:
   the hooks, then the commit by the body, or the event the body refused
   to produce. *)
let rec settle t w stop =
  let ctx = t.ctx in
  match stop with
  | Budget -> Cpu.Ev_normal
  | Overflowed -> Cpu.Ev_overflow
  | Branch ->
    retire ctx;
    let stats = ctx.Context.stats in
    stats.Context.branches <- stats.Context.branches + 1;
    ctx.Context.pc <-
      (if ctx.Context.br_taken then ctx.Context.br_target
       else ctx.Context.br_pc + 1);
    Cpu.Ev_branch
  | Zero_divisor ->
    retire ctx;
    Cpu.Ev_fault Cpu.Div_by_zero
  | Blocked_load | Blocked_store ->
    let addr = t.addr in
    if Memory.is_valid t.mem addr then begin
      Cpu.access t.machine ctx ~write:(stop = Blocked_store) addr t.value;
      settle t w (one t w ~hooked:false)
    end
    else begin
      retire ctx;
      (* a push moves [sp] before its write faults *)
      (match Program.opcode w with
       | Program.Op_call | Program.Op_push -> t.regs.(Reg.sp) <- addr
       | _ -> ());
      Cpu.Ev_fault (Cpu.Mem_fault (Memory.fault_at addr))
    end
  | Special ->
    if Program.is_pred w then begin
      (* a live fix block: commit its inner instruction *)
      let inner = Program.unpred w in
      ctx.Context.in_pred_fix <- true;
      let ev = settle t inner (one t inner ~hooked:true) in
      ctx.Context.in_pred_fix <- false;
      ev
    end
    else begin
      let ev = Cpu.step t.machine ctx w in
      retire ctx;
      ev
    end

(* Observatory: why did a segment hand this pc to the hooked step? *)
let count_deopt t cause = t.deopts.(cause) <- t.deopts.(cause) + 1

let[@inline never] classify_deopt t stop =
  let pc = t.ctx.Context.pc in
  count_deopt t
    (match stop with
     | Branch -> d_branch
     | Zero_divisor -> d_fault
     | Blocked_load | Blocked_store ->
       if not (Memory.is_valid t.mem t.addr) then d_fault
       else if t.watching && Watchpoints.watched t.watch t.addr then d_watch
       else (* a store into the store hook's range *) d_detector
     | Special when pc < 0 || pc >= t.code_len -> d_fault
     | Special when Program.is_pred t.code.(pc) ->
       (* a live predicate *) d_other
     | Special -> (
       match Program.opcode t.code.(pc) with
       | Program.Op_sys -> d_syscall
       | Program.Op_watch | Program.Op_unwatch -> d_watch
       | Program.Op_chkz -> d_detector
       | _ -> (* a halt *) d_other)
     | Budget | Overflowed -> d_other)

(* The tier protocol. Before every segment or hooked step: the limit, then
   the caller's tick once its boundary is reached. A segment's budget is
   clamped to the limit and the boundary, so both fire at the same
   retired-instruction counts as with every instruction on the hooked
   step. *)
let rec drive_loop t h =
  let ctx = t.ctx in
  let insns = ctx.Context.stats.Context.insns in
  if insns >= t.limit then Limit
  else begin
    if insns >= t.boundary then t.boundary <- h.tick ();
    let bound = if t.limit < t.boundary then t.limit else t.boundary in
    if bound > insns then begin
      let branches = ctx.Context.stats.Context.branches in
      let stop = segment t ~budget:(bound - insns) in
      let retired = t.retired in
      if retired > 0 then begin
        (* The segment bumped the context's stats itself; the global index
           (report provenance) follows here, before any hooked report. *)
        let machine = t.machine in
        machine.Machine.insn_index <- machine.Machine.insn_index + retired;
        t.fast_insns <- t.fast_insns + retired;
        t.fast_branches <-
          t.fast_branches + ctx.Context.stats.Context.branches - branches;
        t.fast_segments <- t.fast_segments + 1
      end;
      match stop with
      | Budget -> drive_loop t h
      | Overflowed -> Overflow
      | stop ->
        if t.obs then classify_deopt t stop;
        step t h
    end
    else begin
      (* Pinned: the tick asked to run again before the next instruction
         (a reset interval of 0), which leaves no budget for a segment. *)
      if t.obs then count_deopt t d_pinned;
      step t h
    end
  end

(* One instruction on the hooked step. Its one-instruction segments count
   into no fast-tier figure. *)
and step t h =
  let ctx = t.ctx in
  let pc = ctx.Context.pc in
  Coverage.record_pc t.pcs pc;
  if pc < 0 || pc >= t.code_len then Fault (Cpu.Bad_pc pc)
  else begin
    let machine = t.machine in
    machine.Machine.insn_index <- machine.Machine.insn_index + 1;
    let w = Array.unsafe_get t.code pc in
    match settle t w (one t w ~hooked:true) with
    | Cpu.Ev_normal -> drive_loop t h
    | Cpu.Ev_branch ->
      h.branch ();
      drive_loop t h
    | Cpu.Ev_syscall sys -> if h.syscall sys then drive_loop t h else Unsafe sys
    | Cpu.Ev_exit status -> Exited status
    | Cpu.Ev_halt -> Halted
    | Cpu.Ev_fault f -> Fault f
    | Cpu.Ev_overflow -> Overflow
  end

let drive t h ~spawning ~threshold ~limit =
  t.spawning <- spawning;
  t.threshold <- threshold;
  t.limit <- limit;
  t.boundary <- 0;
  t.fast_insns <- 0;
  t.fast_segments <- 0;
  t.fast_branches <- 0;
  Array.fill t.deopts 0 (Array.length t.deopts) 0;
  bind t;
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
