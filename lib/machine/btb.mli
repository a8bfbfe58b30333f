(** Branch target buffer with per-edge exercise counters.

    The paper's only addition to the front end: each BTB entry carries two
    4-bit saturating counters recording how often each edge (taken-target and
    fallthrough) of the branch has been executed. PathExpander spawns an
    NT-Path on a non-taken edge whose counter is below the threshold; a BTB
    miss reads as zero counters. Counters are periodically reset (the
    [CounterResetInterval] policy lives in the PathExpander engine). *)

type t

(** Counter width in bits (4). *)
val counter_bits : int

val create : entries:int -> assoc:int -> t

(** [counts btb pc] is [(taken_edge_count, nontaken_edge_count)] for the
    branch at [pc]; [(0, 0)] on a BTB miss. Counts as a lookup. *)
val counts : t -> int -> int * int

(** [exercise btb pc ~taken] increments (saturating) the executed edge's
    counter, allocating an entry on miss (LRU victim within the set). *)
val exercise : t -> int -> taken:bool -> unit

(** Side-effect-free counter read: [(taken, nontaken)] counts if the branch
    has a valid entry, [None] on a miss. Unlike {!counts} this performs no
    lookup accounting and no LRU touch, so the selective fast tier can test
    the spawn predicate before deciding whether to commit BTB state. *)
val probe_counts : t -> int -> (int * int) option

(** [lookup_exercise btb pc ~taken] is observationally identical to
    [ignore (counts btb pc); exercise btb pc ~taken] — same lookup/miss
    accounting, same net LRU-clock advance, same final entry state — but
    with a single associative search. The fast tier uses it for branches the
    spawn predicate rejected. *)
val lookup_exercise : t -> int -> taken:bool -> unit

(** [probe_exercise btb pc ~taken ~threshold] fuses the fast tier's spawn
    test with the counter update in one associative search: returns [true]
    — with the BTB untouched, as {!probe_counts} would leave it — when the
    branch misses the BTB or its forced edge's counter is below [threshold]
    (a spawn candidate, deferred to the branch hook); otherwise
    commits exactly {!lookup_exercise}'s effect and returns [false].
    [threshold = max_int] returns [true] without searching. *)
val probe_exercise : t -> int -> taken:bool -> threshold:int -> bool

(** Zero every counter ([CounterResetInterval] expiry). *)
val reset_counters : t -> unit

val lookups : t -> int
val miss_count : t -> int

(** Total entry capacity. *)
val entry_count : t -> int

(** Entries currently valid. *)
val valid_entries : t -> int

(** Valid entries with both edge counters pinned at the 4-bit maximum —
    branches whose counters can no longer discriminate cold edges. *)
val saturated_entries : t -> int

(** Record lookups, misses, miss rate, occupancy and counter saturation
    into [sink] under [prefix]-qualified names (e.g. ["btb.saturation"]). *)
val record_telemetry : t -> Telemetry.t -> prefix:string -> unit
