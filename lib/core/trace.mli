(** A run's NT-Path lifecycle trace, derived when the run ends from the
    engine's per-spawn records ({!Nt_path.record}), its counter resets and
    the machine's report log. Timestamps are {e simulated cycles} (never
    wall clock), so traces are byte-identical across serial and parallel
    runs of the same sweep, and every trace is complete.

    Events come in the order the run made them. Each NT-Path is one
    contiguous block: its spawn, the bugs it reported, a squash when it
    left dirty lines, then its termination. Taken-path bugs and counter
    resets fall between the blocks where the run filed them. A path's
    events are stamped at its spawn cycle plus its own cycles. *)

type event =
  | Spawn of { at : int; path_id : int; br_pc : int; edge : bool; entry_pc : int }
  | Terminate of {
      at : int;
      path_id : int;
      termination : Nt_path.termination;
      len : int;  (** instructions the path retired *)
      dirty_lines : int;  (** L1 lines its squash invalidated *)
    }
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

type t = { label : string; events : event list }

(** The trace of one finished run. [reports] is the machine's report log,
    oldest first ([Report.entries]); the run is the only one its machine
    made. *)
val of_run : ?label:string -> Engine.result -> Report.entry list -> t

val jsonl_schema_version : int

(** One meta line (schema, label, clock, event count) then one JSON object
    per event, newline-terminated. *)
val to_jsonl : t -> string

(** Chrome trace-event JSON (loadable in Perfetto / chrome://tracing): each
    NT-Path becomes a complete slice on [tid = path id], other events
    instants; [ts] is sim cycles rendered as microseconds. *)
val to_chrome : t -> string

(** Write one [trace-NNNN-<label>.jsonl] file per [(label, jsonl)] pair
    into [dir] (created if missing) through {!Artifact_dir.save}: numbered
    in (label, content) order, so a parallel sweep and a serial one write
    byte-identical directories. Returns the paths written. *)
val save_dir : dir:string -> (string * string) list -> string list
