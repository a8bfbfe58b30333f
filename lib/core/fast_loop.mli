(** The selective fast tier: a stripped interpreter that commits exactly the
    observable state transitions of the instrumented tier ([Cpu.step] under
    {!Engine.run} or {!Nt_path.run}) for the instructions it executes, and
    stops — committing nothing — immediately before any instruction that
    needs detector, watchpoint, syscall, recorder or spawn machinery. The
    caller then executes that instruction on the instrumented tier
    (deoptimization, not re-execution), keeping every observable bit-for-bit
    identical to a fully instrumented run.

    One loop serves the taken path and NT-Paths. The difference between
    them is read from the context at every segment: an unsandboxed context
    runs on plain memory under committed cache ownership with taken-path
    coverage; a sandboxed one routes memory through its sandbox (buffered
    writes, speculative cache ownership under [Context.path_id]) and
    records NT-Path coverage.

    The handle ({!make}) is built once per run (or per NT arena) so that a
    segment call allocates nothing: per-call parameters travel through the
    handle, exit state is flushed straight into the context, and the stop
    constructors are all constant. *)

type stop =
  | Budget  (** segment budget exhausted *)
  | Special
      (** the instruction at [ctx.pc] needs the instrumented tier; nothing
          about it has been committed *)
  | Special_branch_taken
      (** a spawn-candidate conditional branch at [ctx.pc]; the fast tier
          evaluated its condition as taken (cross-checked against the
          instrumented tier's own evaluation) *)
  | Special_branch_nontaken
      (** like [Special_branch_taken] with the condition not taken *)
  | Overflow
      (** a sandboxed store overflowed the path's L1 line budget; the store
          has retired (stats and latency charged, [ctx.pc] left on it) —
          exactly the state the instrumented tier's raise leaves behind.
          Unreachable for an unsandboxed context. *)

(** A fast-tier handle, bound to one machine, context and coverage sink.
    The context's L1, sandbox and path id are re-read at every segment, so
    a pooled NT context retargeted per spawn (CMP core L1s, fresh 8-bit
    path ids) needs no handle rebuild. *)
type t

val make : Machine.t -> Context.t -> Coverage.t -> t

(** [run t ~spawning ~threshold ~budget] executes up to [budget]
    instructions on the fast tier, starting at [ctx.pc]. [spawning] is
    false when branches take no instrumented-tier action at all (no BTB
    traffic, branches never deoptimize): {!Pe_config.Baseline} without
    profiled fixing on the taken path, and every NT-Path that follows
    actual conditions. Otherwise any branch whose forced-edge counter
    probes below [threshold] (or misses the BTB) stops the segment. Passing
    [threshold = max_int] therefore deoptimizes at *every* branch, touching
    no BTB state — how the callers keep straight-line code fast under
    configurations with per-branch actions (random spawning's RNG draw,
    profiled fixing's observation, spawn-everywhere, forced cold edges
    inside NT-Paths).

    Retired instructions are already added to [ctx]'s stats when this
    returns (read the count with {!retired}; the caller must add it to
    [Machine.insn_index]). [ctx.pc] is left at the next instruction to
    execute — for [Special]/[Special_branch_*], the instruction the
    instrumented tier must run.

    Preconditions (enforced by {!Engine.run} and {!Nt_path.run}): no
    watchpoints armed; no store hook; the taken path's context is the
    primary, an NT-Path's is sandboxed; and under per-branch-action
    configurations, [spawning = true] with [threshold = max_int]. *)
val run : t -> spawning:bool -> threshold:int -> budget:int -> stop

(** Instructions retired by the most recent {!run} segment. *)
val retired : t -> int
