(** The deterministic flight recorder: a fixed-capacity ring buffer of typed
    NT-Path lifecycle events, timestamped in {e simulated cycles} (never wall
    clock), so traces are byte-identical across serial and parallel runs of
    the same sweep.

    One recorder belongs to one run (one [Machine.t]) and is mutated from a
    single domain. With tracing disabled every emit site costs one branch on
    {!enabled} and the shared {!disabled} singleton is never written; with
    tracing enabled an emit is a handful of stores into preallocated flat
    arrays — no allocation either way. A full ring overwrites its oldest
    events and counts them in {!dropped}.

    Timestamps are [base + local]: {!set_base} holds the primary context's
    cycle count at NT-Path spawn (0 on the primary context itself) and
    {!set_local} the emitting context's own cycle count, set just before an
    emit. *)

type cause = Max_length | Crash | Unsafe_event | Program_end | Cache_overflow

val cause_name : cause -> string

type event =
  | Spawn of { at : int; path_id : int; br_pc : int; edge : bool; entry_pc : int }
  | Terminate of {
      at : int;
      path_id : int;
      cause : cause;
      len : int;  (** instructions the path retired *)
      dirty_lines : int;  (** L1 lines its squash invalidated *)
    }
  | Commit of { at : int; owner : int; lines : int }
  | Squash of { at : int; owner : int; lines : int }
  | Bug_detected of {
      at : int;
      site : int;
      origin : int;  (** 0 = taken path, else NT-Path id *)
      spawn_site : int;  (** spawning branch pc, -1 on the taken path *)
      edge : int;  (** forced direction 0/1, -1 on the taken path *)
      pc : int;
    }
  | Counter_reset of { at : int; insns : int }

type t

val default_capacity : int

(** A fresh enabled recorder (capacity in events, default 65536). *)
val create : ?capacity:int -> unit -> t

(** The shared no-op recorder: {!enabled} is [false] and it is never
    mutated, so every machine in every domain may hold the same instance. *)
val disabled : t

val enabled : t -> bool

(** Set the sim-time base (primary-context cycles at NT-Path spawn; 0 while
    the primary context runs). No-op when disabled. *)
val set_base : t -> int -> unit

(** Set the emitting context's local cycle count. No-op when disabled. *)
val set_local : t -> int -> unit

val emit_spawn : t -> path_id:int -> br_pc:int -> edge:bool -> entry_pc:int -> unit

val emit_terminate :
  t -> path_id:int -> cause:cause -> len:int -> dirty_lines:int -> unit

val emit_commit : t -> owner:int -> lines:int -> unit
val emit_squash : t -> owner:int -> lines:int -> unit

val emit_bug :
  t -> site:int -> origin:int -> spawn_site:int -> edge:int -> pc:int -> unit

val emit_counter_reset : t -> insns:int -> unit

(** Events currently retained (bounded by capacity). *)
val length : t -> int

(** Events ever emitted. *)
val total : t -> int

(** Events overwritten because the ring was full. *)
val dropped : t -> int

(** Retained events, oldest first. *)
val events : t -> event list

(** An immutable per-run trace snapshot. *)
type dump = { label : string; events : event list; total : int; dropped : int }

val dump : ?label:string -> t -> dump

val jsonl_schema_version : int

(** One meta line (schema, label, totals) then one JSON object per event,
    oldest first, newline-terminated. *)
val jsonl_of_dump : dump -> string

(** Chrome trace-event JSON (loadable in Perfetto / chrome://tracing):
    Spawn/Terminate pairs become complete slices on [tid = path id], other
    events instants; [ts] is sim cycles rendered as microseconds. *)
val chrome_of_dump : dump -> string

(** Write one [trace-NNNN-<label>.jsonl] file per [(label, jsonl)] pair
    into [dir] (created if missing) through {!Artifact_dir.save}: numbered
    in (label, content) order, so a parallel sweep and a serial one write
    byte-identical directories. Returns the paths written. *)
val save_dir : dir:string -> (string * string) list -> string list
