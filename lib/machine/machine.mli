(** The assembled simulated machine: program image, data memory, shared L2,
    BTB with exercise counters, watchpoint unit, report log (monitor memory
    area) and program I/O. Execution contexts (one per core / path) are
    created separately and share this state. *)

(** An observer of data stores, the attachment point for detectors built
    outside the compiler, such as the DIDUCE-style invariant monitor. It
    sees every store into [[lo, hi)], sandboxed ones included, as
    [observe ctx addr value] before the store takes effect. The range is
    what keeps the fast tier fast: it stops only before a store into it. *)
type store_hook = {
  lo : int;
  hi : int;
  observe : Context.t -> int -> int -> unit;
}

type t = {
  config : Machine_config.t;
  program : Program.t;
  dcode : Decode.t array;
      (** execution-form image of [program.code], decoded once at load:
          register indices resolved, immediates split out, so the
          interpreter's hot loop never re-inspects raw [Insn.t] *)
  mem : Memory.t;
  l2 : Cache.t;
  btb : Btb.t;
  watch : Watchpoints.t;
  reports : Report.t;
  io : Io.t;
  mutable insn_index : int;  (** global retired-instruction counter *)
  mutable store_hook : store_hook option;
      (** read by the driver at every segment, so it may change between
          drives or in a hook, never inside a segment *)
  telemetry : Telemetry.t;
      (** per-run observability sink; the engine fills it with spawn,
          termination, cache, BTB and phase-timing data *)
  recorder : Recorder.t;
      (** per-run flight recorder of NT-Path lifecycle events in sim time;
          the {!Recorder.disabled} singleton unless an enabled recorder was
          passed to {!create}, making every emit site a single branch *)
}

(** Validates the program, lays out memory, installs initial data and points
    the runtime allocator's break word (global address 1) at the heap base.
    Validation and decode are memoised on the last program value (compared
    physically), so consecutive creates of one program check it once; an
    invalid program raises {!Program.Invalid_program}.
    [recorder] (default {!Recorder.disabled}) is attached to the L2 and
    every L1 this machine creates. *)
val create :
  ?config:Machine_config.t -> ?input:string -> ?recorder:Recorder.t ->
  Program.t -> t

(** A fresh L1 cache with this machine's geometry (one per core). *)
val new_l1 : t -> Cache.t

(** Context positioned at the program entry with a full stack and its own
    L1. *)
val main_context : t -> Context.t

(** Extra stall cycles for a data access at [addr] through [l1] (0 on L1
    hit); [owner] version-tags the line on fills and — when [write] — on
    hits (read hits leave committed lines committed); [speculative]
    accesses probe the shared L2 without installing lines. *)
val access_latency :
  t -> Cache.t -> owner:int -> write:bool -> speculative:bool -> int -> int

(** Does nothing. Memory holds only the pages a run wrote and the GC
    reclaims them with the machine, so there is nothing to give back early.
    Kept only for the campaign benchmark, which still calls it. *)
val release : t -> unit

(** Program output so far. *)
val output : t -> string
