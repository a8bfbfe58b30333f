(** The run driver and the ISA's one body: the loop behind every simulated
    run — the taken path and NT-Paths of {!Engine.run}, the paths of the
    software PathExpander and the plain baseline run.

    The body is the only definition of an ordinary instruction's effect.
    A drive runs it in fast segments that stop — committing nothing —
    before any instruction that needs a hook: detector, watchpoint,
    store-hook, syscall or spawn machinery (a watchpoint is
    needed by a watch/unwatch and by an access to a word the watch unit's
    filter reports watched; the store hook by a store, call or push into
    its range). The driver runs that one instruction through the hooked
    step — [Cpu]'s hooks, then a one-instruction segment of the same body
    — and hands its event to the caller's {!hooks}, keeping every
    observable bit-for-bit identical to a run with every instruction on
    the hooked step. There is one execution mode: fast segments plus the
    hooked step.

    The driver owns the tier protocol: segment budgets clamped to the
    limit and the tick's boundary, the [Machine.insn_index] sync after a
    fast segment, the per-pc coverage record before a hooked step (its
    kind read from [Context.is_sandboxed]), and the mapping of every event
    onto one {!exit}. Callers keep only their own policy:
    spawning, counter resets, redirects and syscall virtualisation, as
    hooks.

    The difference between the taken path and an NT-Path is read from the
    context at every drive: an unsandboxed context runs on plain memory
    under committed cache ownership with taken-path coverage; a sandboxed
    one routes memory through its sandbox (buffered writes, speculative
    cache ownership under [Context.path_id]) and records
    NT-Path coverage. *)

(** A driver handle, bound to one machine, context and coverage sink. The
    context's L1, sandbox and path id are re-read at every drive, so a
    pooled NT context retargeted per spawn (CMP core L1s, fresh 8-bit path
    ids) needs no handle rebuild; they must not change within a drive. A segment allocates nothing.

    [obs] (default off) counts hooked steps by cause for the Coverage
    Observatory ({!record_telemetry}). *)
type t

val make : ?obs:bool -> Machine.t -> Context.t -> Coverage.t -> t

(** How a drive ended. *)
type exit =
  | Limit  (** the context retired [limit] instructions *)
  | Exited of int  (** the program called [exit] *)
  | Halted
  | Fault of Cpu.fault  (** the instruction at [ctx.pc] faulted *)
  | Overflow
      (** a sandboxed write exceeded the L1's buffering capacity; the store
          has retired in place *)
  | Unsafe of Insn.sys
      (** a sandboxed syscall the [syscall] hook declined; not executed *)

(** The caller's side of a drive. All three read the context they need
    ([ctx.pc], the [br_*] scratch fields, registers) directly.
    - [tick] runs at the start of the drive and then whenever the
      context's retired-instruction count reaches the boundary it last
      returned (before that count's segment or hooked step): a
      segment never crosses it, and a boundary at or below the current
      count makes the drive step instead. A tick that returns the context's
      current retired count is the zero-budget tick: it pins every
      instruction to the hooked step (a zero counter-reset interval does
      this; so do the tests' fast-tier differentials).
    - [branch] runs after the hooked step resolved a conditional branch;
      it may redirect [ctx.pc].
    - [syscall] runs when a sandboxed context meets a syscall, which the
      hooked step reports without executing: [true] means the hook
      handled it (and moved [ctx.pc] on), [false] ends the drive with
      [Unsafe]. An unsandboxed context executes its syscalls itself. *)
type hooks = {
  tick : unit -> int;
  branch : unit -> unit;
  syscall : Insn.sys -> bool;
}

(** A [tick] with no boundary. *)
val no_tick : unit -> int

(** [drive t hooks ~spawning ~threshold ~limit] runs the context from
    [ctx.pc] until it ends or its stats reach [limit] retired instructions.

    Segments run on the fast tier whenever the tick leaves a budget; the
    hooked step takes only the instructions that need a hook. Armed
    watchpoints only make a segment stop before each watched access, and a
    store hook before each store, call or push into its range. [spawning] is false when
    branches need no hook at all (no BTB traffic, branches never stop a
    segment). Otherwise any branch whose forced-edge counter probes below
    [threshold] (or misses the BTB) stops one; [threshold = max_int]
    stops at *every* branch and touches no BTB state — how callers
    with per-branch actions (random spawning's RNG draw, profiled fixing's
    observation, spawn-everywhere, forced cold edges inside NT-Paths, the
    software history) keep straight-line code fast. Such callers must pass
    [spawning = true] with [threshold = max_int].

    The drive's accounting ({!fast_insns}, {!fast_segments}, the
    observatory counts) is reset on entry and belongs to [t]; a drive nested
    in a hook must use another handle. *)
val drive :
  t -> hooks -> spawning:bool -> threshold:int -> limit:int -> exit

(** Instructions the last drive retired on the fast tier. *)
val fast_insns : t -> int

(** Fast segments of the last drive that retired at least one
    instruction. *)
val fast_segments : t -> int

(** The last drive's [selective.*] counters (when it ran any fast segment)
    and, for an [obs] handle, its [obs.deopt.*] and [obs.pinned_insns]
    counts. *)
val record_telemetry : t -> Telemetry.t -> unit
