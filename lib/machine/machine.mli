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
}

(** Lays out memory, installs initial data and points the runtime
    allocator's break word (global address 1) at the heap base. The
    program needs no check or decode here: {!Program.make} validated it,
    and the interpreter runs its packed words in place. *)
val create : ?config:Machine_config.t -> ?input:string -> Program.t -> t

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
