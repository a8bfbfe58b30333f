(** One NT-Path: spawn, sandboxed execution, termination, squash — and its
    record, the run's only live account of the path.

    The runner copies the spawning core's registers, redirects the pc to the
    forced edge's stub (setting the predicate register iff fixing is on, so
    the stub's consistency fixes execute), buffers every memory write in the
    versioned-L1 sandbox, and steps until one of the paper's termination
    conditions: the instruction budget, a crash (swallowed), an unsafe
    event, the end of the program, or L1 buffering overflow. On termination
    the path's cache lines are gang-invalidated, its watchpoint mutations
    undone and its writes discarded; only detector reports survive.

    This is the only NT-Path runner: the standard and CMP engines and the
    software PathExpander all spawn through {!run}. Each spawn yields one
    {!record}; telemetry, the trace ({!Trace}) and the observatory are
    folds over a run's records, taken when the run ends. *)

type termination =
  | T_max_length  (** reached [MaxNTPathLength] instructions *)
  | T_crash of Cpu.fault  (** the exception is swallowed, never delivered *)
  | T_unsafe of Insn.sys  (** an unsandboxable syscall *)
  | T_program_end
  | T_cache_overflow  (** dirtied more lines than L1 can buffer *)

type record = {
  path_id : int;  (** the path's cache version tag *)
  spawn_cycle : int;  (** the primary core's cycle count at the spawn *)
  spawn_br_pc : int;  (** the branch whose non-taken edge was forced *)
  forced_direction : bool;
  entry_pc : int;  (** head of the forced edge's stub *)
  insns : int;
  fast_insns : int;  (** of [insns], those retired on the fast tier *)
  cycles : int;  (** the path's own cycles, counted from its spawn *)
  stores : int;
  branches : int;
  squashed_lines : int;  (** dirty L1 lines gang-invalidated at squash *)
  first_report : int;
      (** index in the machine's report log of the first report the path
          filed; it filed [reports] entries from there on, contiguously *)
  reports : int;
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
  spawn_cycle:int ->
  record

(** {1 Folds over a run's records} *)

(** How many records ended in each termination, keyed by
    {!termination_name} in alphabetical order, zeros included. *)
val termination_counts : record list -> (string * int) list

(** Write the records' NT-Path metrics into a telemetry sink: the
    [nt.term.<termination>], [nt.insns], [nt.fast_insns], [nt.cycles] and
    [nt.squashed_lines] counters (each only when some record adds to it)
    and the [nt.len], [nt.dirty_per_squash] and [nt.spawn_interarrival]
    histograms. [records] are in spawn order. *)
val record_telemetry : Telemetry.t -> record list -> unit
