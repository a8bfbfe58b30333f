type fault =
  | Mem_fault of Memory.fault
  | Div_by_zero
  | Bad_pc of int
  | Sandbox_overflow

(* [Ev_branch] carries no payload: the branch's pc, direction and
   taken-target are in the context's [br_pc]/[br_taken]/[br_target]
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

(* File a detector report with its path-origin provenance. Hooks run
   before their instruction retires, so the report is stamped at the
   instruction's issue cycle, one past the context's retired cycles (sim
   time, so anything derived from it stays deterministic). *)
let file_report machine ctx site =
  let pc = ctx.Context.pc in
  let cycle = ctx.Context.stats.Context.cycles + 1 in
  let insn_index = machine.Machine.insn_index in
  match ctx.Context.sandbox with
  | Some sb ->
    Report.file machine.Machine.reports ~site
      ~origin:(Report.Nt_path (Context.sandbox_path_id sb))
      ~spawn_br_pc:(Context.sandbox_spawn_pc sb)
      ~branch_edge:(if Context.sandbox_spawn_edge sb then 1 else 0)
      ~pc ~insn_index ~cycle
  | None ->
    Report.file machine.Machine.reports ~site ~origin:Report.Taken_path ~pc
      ~insn_index ~cycle

(* [addr] is valid here, so the per-word filter is exact: the range list
   is walked only for an access that some range contains. The hooks are
   cold: kept out of line so the driver's hooked step stays small. *)
let[@inline never] access machine ctx ~write addr value =
  let watch = machine.Machine.watch in
  if Watchpoints.watched watch addr then
    List.iter (file_report machine ctx)
      (Watchpoints.hit_sites watch ~is_write:write addr);
  if write then
    match machine.Machine.store_hook with
    | Some hook when addr >= hook.Machine.lo && addr < hook.Machine.hi ->
      hook.Machine.observe ctx addr value
    | Some _ | None -> ()

let[@inline never] do_syscall machine ctx sys =
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

(* A watch-unit mutation inside an NT-Path is journaled for undo at
   squash. *)
let[@inline never] journal ctx entry =
  (match ctx.Context.sandbox with
   | Some sb -> Context.journal_watch sb entry
   | None -> ());
  ctx.Context.pc <- ctx.Context.pc + 1;
  Ev_normal

(* The instructions that are all hook. For a sandboxed context a syscall
   is reported *without* being executed (the unsafe event: the driver's
   caller decides whether the path survives it). *)
let[@inline never] step machine ctx w =
  let pc = ctx.Context.pc in
  match Program.opcode w with
  | Program.Op_sys ->
    let sys = Program.sys w in
    if Context.is_sandboxed ctx then Ev_syscall sys
    else begin
      let ev = do_syscall machine ctx sys in
      ctx.Context.pc <- pc + 1;
      ev
    end
  | Program.Op_chkz ->
    if Context.get_reg ctx (Program.r1 w) = 0 then
      file_report machine ctx (Program.imm machine.Machine.program w);
    ctx.Context.pc <- pc + 1;
    Ev_normal
  | Program.Op_watch ->
    journal ctx
      (Watchpoints.watch machine.Machine.watch
         ~lo:(Context.get_reg ctx (Program.r1 w))
         ~hi:(Context.get_reg ctx (Program.r2 w))
         ~site:(Program.imm machine.Machine.program w))
  | Program.Op_unwatch ->
    journal ctx
      (Watchpoints.unwatch machine.Machine.watch
         ~lo:(Context.get_reg ctx (Program.r1 w))
         ~hi:(Context.get_reg ctx (Program.r2 w)))
  | Program.Op_halt -> Ev_halt
  | _ -> invalid_arg "Cpu: the fast tier's body runs ordinary instructions"
