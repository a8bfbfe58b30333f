(** One NT-Path: spawn, sandboxed execution, termination, squash.

    The runner copies the spawning core's registers, redirects the pc to the
    forced edge's stub (setting the predicate register iff fixing is on, so
    the stub's consistency fixes execute), buffers every memory write in the
    versioned-L1 sandbox, and steps until one of the paper's termination
    conditions: the instruction budget, a crash (swallowed), an unsafe
    event, the end of the program, or L1 buffering overflow. On termination
    the path's cache lines are gang-invalidated, its watchpoint mutations
    undone and its writes discarded; only detector reports survive.

    This is the only NT-Path runner: the standard and CMP engines and the
    software PathExpander all spawn through {!run}. *)

type termination =
  | T_max_length  (** reached [MaxNTPathLength] instructions *)
  | T_crash of Cpu.fault  (** the exception is swallowed, never delivered *)
  | T_unsafe of Insn.sys  (** an unsandboxable syscall *)
  | T_program_end
  | T_cache_overflow  (** dirtied more lines than L1 can buffer *)

type record = {
  spawn_br_pc : int;  (** the branch whose non-taken edge was forced *)
  forced_direction : bool;
  entry_pc : int;  (** head of the forced edge's stub *)
  insns : int;
  cycles : int;
  stores : int;
  branches : int;
  squashed_lines : int;  (** dirty L1 lines gang-invalidated at squash *)
  termination : termination;
}

val termination_name : termination -> string
val is_crash : record -> bool
val is_unsafe : record -> bool

(** The termination an NT-Path drive's exit stands for. *)
val termination_of_exit : Fast_loop.exit -> termination

(** Pooled spawn state — a context, an overlay sandbox and a driver handle
    recycled across every NT-Path of an engine run, so a spawn allocates
    nothing. *)
type arena

(** One arena for an engine run: its machine, configuration and coverage
    sink; the L1 is retargeted per spawn. [line_limit] bounds the dirty
    lines one path may buffer: the L1's line capacity for the hardware
    engines, [max_int] for the software PathExpander, which has no L1
    buffer to overflow. *)
val make_arena :
  Machine.t -> Pe_config.t -> Coverage.t -> l1:Cache.t -> line_limit:int -> arena

(** Execute one NT-Path to termination. [regs] is the spawning core's
    register file (copied, never mutated); [l1] the cache the path runs
    against (the primary core's in the standard configuration, an idle
    core's under the CMP option); [path_id] its cache version tag. With
    [config.sandbox_syscalls] (the OS-support extension) I/O syscalls are
    virtualised instead of terminating the path. [fix_override] (the
    profiled-fixing extension) writes the given (address, value) into the
    sandbox at entry and suppresses the boundary stubs. *)
val run :
  ?fix_override:int * int ->
  arena ->
  l1:Cache.t ->
  regs:int array ->
  entry:int ->
  spawn_br_pc:int ->
  forced_direction:bool ->
  path_id:int ->
  record
