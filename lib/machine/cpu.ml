type fault =
  | Mem_fault of Memory.fault
  | Div_by_zero
  | Bad_pc of int
  | Sandbox_overflow

(* [Ev_branch] carries no payload: the interpreter deposits the branch's pc,
   direction and taken-target in the context's [br_pc]/[br_taken]/[br_target]
   scratch fields (fallthrough is always [br_pc + 1]), so the per-branch
   event — by far the hottest non-trivial one — allocates nothing. *)
type event =
  | Ev_normal
  | Ev_branch
  | Ev_syscall of Insn.sys
  | Ev_exit of int
  | Ev_halt
  | Ev_fault of fault
  | Ev_overflow

let fault_to_string = function
  | Mem_fault f -> Memory.fault_to_string f
  | Div_by_zero -> "division by zero"
  | Bad_pc pc -> Printf.sprintf "bad pc %d" pc
  | Sandbox_overflow -> "sandbox overflow outside a sandbox"

exception Overflow

(* File a detector report with its path-origin provenance, and mirror it
   into the flight recorder (timestamped base + the reporting context's own
   cycles — sim time, so traces stay deterministic). *)
let file_report machine ctx site =
  let recorder = machine.Machine.recorder in
  let pc = ctx.Context.pc in
  match ctx.Context.sandbox with
  | Some sb ->
    let path_id = Context.sandbox_path_id sb in
    let spawn_site = Context.sandbox_spawn_pc sb in
    let edge = if Context.sandbox_spawn_edge sb then 1 else 0 in
    Report.file machine.Machine.reports ~site ~origin:(Report.Nt_path path_id)
      ~spawn_br_pc:spawn_site ~branch_edge:edge ~pc
      ~insn_index:machine.Machine.insn_index;
    if Recorder.enabled recorder then begin
      Recorder.set_local recorder ctx.Context.stats.Context.cycles;
      Recorder.emit_bug recorder ~site ~origin:path_id ~spawn_site ~edge ~pc
    end
  | None ->
    Report.file machine.Machine.reports ~site ~origin:Report.Taken_path ~pc
      ~insn_index:machine.Machine.insn_index;
    if Recorder.enabled recorder then begin
      Recorder.set_local recorder ctx.Context.stats.Context.cycles;
      Recorder.emit_bug recorder ~site ~origin:0 ~spawn_site:(-1) ~edge:(-1)
        ~pc
    end

let check_watch machine ctx ~is_write addr =
  if not (Watchpoints.is_empty machine.Machine.watch) then
    List.iter (file_report machine ctx)
      (Watchpoints.hit_sites machine.Machine.watch ~is_write addr)

let data_read machine ctx addr =
  (* validity first: a faulting access never reaches the cache or watch unit *)
  let mem = machine.Machine.mem in
  Memory.check mem addr;
  check_watch machine ctx ~is_write:false addr;
  let stats = ctx.Context.stats in
  stats.Context.loads <- stats.Context.loads + 1;
  (* one match covers owner, speculation and the read itself; the path id
     rides along so a sandboxed read *fill* takes speculative ownership (the
     line dies with the path, no prefetching for the taken path); a read
     *hit* never retags — see [Cache.access] *)
  match ctx.Context.sandbox with
  | None ->
    stats.Context.cycles <-
      stats.Context.cycles
      + Machine.access_latency machine ctx.Context.l1
          ~owner:Cache.committed_owner ~write:false ~speculative:false addr;
    (* checked above *)
    Memory.read_valid mem addr
  | Some sb ->
    stats.Context.cycles <-
      stats.Context.cycles
      + Machine.access_latency machine ctx.Context.l1
          ~owner:(Context.sandbox_path_id sb) ~write:false ~speculative:true
          addr;
    Context.sandbox_read sb mem addr

(* Raises [Overflow] when a sandboxed path dirties more lines than L1 can
   buffer. *)
let data_write machine ctx addr value =
  let mem = machine.Machine.mem in
  Memory.check mem addr;
  check_watch machine ctx ~is_write:true addr;
  (match machine.Machine.store_hook with
   | Some hook -> hook ctx addr value
   | None -> ());
  let stats = ctx.Context.stats in
  stats.Context.stores <- stats.Context.stores + 1;
  match ctx.Context.sandbox with
  | None ->
    stats.Context.cycles <-
      stats.Context.cycles
      + Machine.access_latency machine ctx.Context.l1
          ~owner:Cache.committed_owner ~write:true ~speculative:false addr;
    Memory.write mem addr value
  | Some sb ->
    stats.Context.cycles <-
      stats.Context.cycles
      + Machine.access_latency machine ctx.Context.l1
          ~owner:(Context.sandbox_path_id sb) ~write:true ~speculative:true
          addr;
    if not (Context.sandbox_write sb mem addr value) then raise Overflow

let push machine ctx value =
  let sp = Context.get_reg ctx Reg.sp - 1 in
  Context.set_reg ctx Reg.sp sp;
  data_write machine ctx sp value

let pop machine ctx =
  let sp = Context.get_reg ctx Reg.sp in
  let v = data_read machine ctx sp in
  Context.set_reg ctx Reg.sp (sp + 1);
  v

let do_syscall machine ctx sys =
  let io = machine.Machine.io in
  match sys with
  | Insn.Sys_putc ->
    Io.putc io (Context.get_reg ctx (Reg.arg 0));
    Ev_normal
  | Insn.Sys_getc ->
    Context.set_reg ctx Reg.rv (Io.getc io);
    Ev_normal
  | Insn.Sys_print_int ->
    Io.print_int io (Context.get_reg ctx (Reg.arg 0));
    Ev_normal
  | Insn.Sys_exit ->
    let status = Context.get_reg ctx (Reg.arg 0) in
    Io.set_exit io status;
    Ev_exit status

(* Per-opcode register effects, shared with the selective fast tier
   ([Fast_loop]) so the ISA's register semantics have one body. Register
   reads go straight to the array: [write_reg] is the r0 rule — [Reg.zero]'s
   slot is never written (see also [Context.set_reg]), so it always reads 0.
   The division helpers run after the caller's zero check. The annotation
   matters: inlining copies the body as compiled, and an unannotated
   ['a array] store would be a generic one (float-array tag test plus
   [caml_modify]) in every caller. *)
let[@inline always] write_reg (regs : int array) rd (v : int) =
  if rd <> 0 then Array.unsafe_set regs rd v

let[@inline always] exec_alu regs op rd a b =
  write_reg regs rd (Insn.eval_alu op a b)

let[@inline always] exec_cmp regs c rd a b =
  write_reg regs rd (if Insn.eval_cmp c a b then 1 else 0)

let[@inline always] exec_div regs rd a b = write_reg regs rd (a / b)
let[@inline always] exec_mod regs rd a b = write_reg regs rd (a mod b)

(* Execute the instruction at [ctx.pc]; advances [ctx.pc], updates timing and
   returns the event the engine must dispatch on. For a sandboxed context, a
   syscall is reported *without* being executed (unsafe event: the engine
   squashes the path), and faults are reported rather than raised (the
   exception is swallowed by the hardware, as in the paper).

   Dispatch is over the machine's pre-decoded execution form ([Decode.t]),
   not raw [Insn.t]: register indices are plain ints, Div/Mod are split out
   so the ALU fast path neither faults nor allocates. *)
let rec exec machine ctx pc d =
  let regs = ctx.Context.regs in
  match d with
      | Decode.D_alu (op, rd, rs, rt) ->
        exec_alu regs op rd (Array.unsafe_get regs rs)
          (Array.unsafe_get regs rt);
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_alui (op, rd, rs, imm) ->
        exec_alu regs op rd (Array.unsafe_get regs rs) imm;
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_div (rd, rs, rt) ->
        let b = Array.unsafe_get regs rt in
        if b = 0 then Ev_fault Div_by_zero
        else begin
          exec_div regs rd (Array.unsafe_get regs rs) b;
          ctx.Context.pc <- pc + 1;
          Ev_normal
        end
      | Decode.D_mod (rd, rs, rt) ->
        let b = Array.unsafe_get regs rt in
        if b = 0 then Ev_fault Div_by_zero
        else begin
          exec_mod regs rd (Array.unsafe_get regs rs) b;
          ctx.Context.pc <- pc + 1;
          Ev_normal
        end
      | Decode.D_divi (rd, rs, imm) ->
        if imm = 0 then Ev_fault Div_by_zero
        else begin
          exec_div regs rd (Array.unsafe_get regs rs) imm;
          ctx.Context.pc <- pc + 1;
          Ev_normal
        end
      | Decode.D_modi (rd, rs, imm) ->
        if imm = 0 then Ev_fault Div_by_zero
        else begin
          exec_mod regs rd (Array.unsafe_get regs rs) imm;
          ctx.Context.pc <- pc + 1;
          Ev_normal
        end
      | Decode.D_cmp (c, rd, rs, rt) ->
        exec_cmp regs c rd (Array.unsafe_get regs rs)
          (Array.unsafe_get regs rt);
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_cmpi (c, rd, rs, imm) ->
        exec_cmp regs c rd (Array.unsafe_get regs rs) imm;
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_li (rd, imm) ->
        write_reg regs rd imm;
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_mov (rd, rs) ->
        write_reg regs rd (Array.unsafe_get regs rs);
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_load (rd, base, off) ->
        let addr = Array.unsafe_get regs base + off in
        write_reg regs rd (data_read machine ctx addr);
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_store (rs, base, off) ->
        let addr = Array.unsafe_get regs base + off in
        data_write machine ctx addr (Array.unsafe_get regs rs);
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_br (c, rs, rt, target) ->
        let stats = ctx.Context.stats in
        stats.Context.branches <- stats.Context.branches + 1;
        let taken =
          Insn.eval_cmp c (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)
        in
        ctx.Context.pc <- (if taken then target else pc + 1);
        ctx.Context.br_pc <- pc;
        ctx.Context.br_taken <- taken;
        ctx.Context.br_target <- target;
        Ev_branch
      | Decode.D_jmp target ->
        ctx.Context.pc <- target;
        Ev_normal
      | Decode.D_call target ->
        push machine ctx (pc + 1);
        ctx.Context.pc <- target;
        Ev_normal
      | Decode.D_ret ->
        let ra = pop machine ctx in
        ctx.Context.pc <- ra;
        Ev_normal
      | Decode.D_push rs ->
        push machine ctx (Array.unsafe_get regs rs);
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_pop rd ->
        write_reg regs rd (pop machine ctx);
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_syscall sys ->
        if Context.is_sandboxed ctx then Ev_syscall sys
        else begin
          let ev = do_syscall machine ctx sys in
          ctx.Context.pc <- pc + 1;
          ev
        end
      | Decode.D_checkz (rs, site) ->
        if Array.unsafe_get regs rs = 0 then file_report machine ctx site;
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_watch (lo, hi, site) ->
        let entry =
          Watchpoints.watch machine.Machine.watch
            ~lo:(Context.get_reg ctx lo) ~hi:(Context.get_reg ctx hi) ~site
        in
        (match ctx.Context.sandbox with
         | Some sb -> Context.journal_watch sb entry
         | None -> ());
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_unwatch (lo, hi) ->
        let entry =
          Watchpoints.unwatch machine.Machine.watch
            ~lo:(Context.get_reg ctx lo) ~hi:(Context.get_reg ctx hi)
        in
        (match ctx.Context.sandbox with
         | Some sb -> Context.journal_watch sb entry
         | None -> ());
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_pred inner ->
        if ctx.Context.pred then begin
          ctx.Context.in_pred_fix <- true;
          let ev = exec machine ctx pc inner in
          ctx.Context.in_pred_fix <- false;
          ev
        end
        else begin
          ctx.Context.pc <- pc + 1;
          Ev_normal
        end
      | Decode.D_clearpred ->
        ctx.Context.pred <- false;
        ctx.Context.pc <- pc + 1;
        Ev_normal
      | Decode.D_halt -> Ev_halt
  | Decode.D_nop ->
    ctx.Context.pc <- pc + 1;
    Ev_normal

let step machine ctx =
  let dcode = machine.Machine.dcode in
  let pc = ctx.Context.pc in
  if pc < 0 || pc >= Array.length dcode then Ev_fault (Bad_pc pc)
  else begin
    let stats = ctx.Context.stats in
    stats.Context.insns <- stats.Context.insns + 1;
    stats.Context.cycles <- stats.Context.cycles + 1;
    machine.Machine.insn_index <- machine.Machine.insn_index + 1;
    try exec machine ctx pc (Array.unsafe_get dcode pc) with
    | Memory.Fault f -> Ev_fault (Mem_fault f)
    | Overflow -> Ev_overflow
  end

type run_outcome = {
  outcome : [ `Halted | `Exited of int | `Faulted of fault | `Fuel_exhausted ];
  insns : int;
  cycles : int;
}

(* Run a program to completion with no PathExpander involvement: the baseline
   monitored run. *)
let run_baseline ?(fuel = 200_000_000) machine =
  let ctx = Machine.main_context machine in
  let rec loop () =
    if ctx.Context.stats.Context.insns >= fuel then `Fuel_exhausted
    else
      match step machine ctx with
      | Ev_normal | Ev_branch | Ev_syscall _ -> loop ()
      | Ev_exit status -> `Exited status
      | Ev_halt -> `Halted
      | Ev_fault f -> `Faulted f
      (* An unsandboxed context cannot buffer writes, so [data_write] never
         raises [Overflow] here (see the Ev_overflow-unreachable tests). If
         the invariant is ever broken, surface a fault instead of crashing
         the whole simulator. *)
      | Ev_overflow -> `Faulted Sandbox_overflow
  in
  let outcome = loop () in
  {
    outcome;
    insns = ctx.Context.stats.Context.insns;
    cycles = ctx.Context.stats.Context.cycles;
  }
