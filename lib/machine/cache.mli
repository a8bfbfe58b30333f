(** Set-associative LRU cache model with versioned lines.

    Used for timing (hit/miss latency accounting) and for the paper's
    L1-based NT-Path sandboxing: lines written by an NT-Path carry that
    path's ID as a version tag (the standard configuration's 1-bit Vtag is
    the two-ID special case); squashing a path gang-invalidates its
    lines. *)

type t

type outcome = Hit | Miss

(** Version tag of committed (architectural) data: 0. *)
val committed_owner : int

val create : size_kb:int -> assoc:int -> line_bytes:int -> t

(** [access ?owner ?write ?allocate cache addr] touches the line holding
    word [addr], filling it on a miss unless [allocate] is [false]
    (speculative paths probe the shared L2 without installing lines).
    [owner] version-tags the line on a fill, and — when [write] is true —
    on a hit as well: NT-Path fills and stores create speculative data that
    must die with the path, but a read hit leaves a committed line
    committed. *)
val access : ?owner:int -> ?write:bool -> ?allocate:bool -> t -> int -> outcome

(** [access] with every argument explicit — the hot-path entry point:
    optional arguments box their values ([Some owner]) on each call, which
    at one-plus allocation per simulated load/store is measurable.

    Every probe runs through a two-layer fast path: an MRU line memo that
    answers semantically no-op hits (MRU read hit, or same-owner write hit
    — no retag, no LRU reorder) in a couple of compares, then a per-set
    direct-mapped tag filter that tries the set's last-touched way before
    the associative walk. The filter is unconditional and a hint: its way
    is re-verified (tag and valid bit) on every probe. Neither layer
    changes an observable — hit/miss outcomes, counters, owners, eviction
    order — which a test-only model with neither layer checks. *)
val access_line :
  t -> int -> owner:int -> write:bool -> allocate:bool -> outcome

(** [memo_probe cache addr ~owner ~write] is [true] iff {!access_line}
    would answer this access from the MRU line memo — an L1 hit with zero
    stall cycles and no state change — committing nothing. The fast tier
    batches the implied hit counts in a register and flushes them
    once per segment with {!add_hits}. *)
val memo_probe : t -> int -> owner:int -> write:bool -> bool

(** Credit [n] deferred memo hits to the hit counter (the flush half of the
    batched accounting around {!memo_probe}). *)
val add_hits : t -> int -> unit

(** Invalidate all lines version-tagged [owner]; returns how many.
    O(lines the owner touched since its last squash) for 8-bit
    owner ids, via a per-owner journal of ownership acquisitions. *)
val gang_invalidate : t -> owner:int -> int

(** Number of valid lines currently tagged [owner]; O(1) for 8-bit ids. *)
val owned_lines : t -> owner:int -> int

(** Full visible line state, [(tag, valid, owner, lru)] in set/way order —
    for test assertions of behavioural equivalence. *)
val snapshot : t -> (int * bool * int * int) array

(** Like {!snapshot} but with per-set LRU ranks (invalid lines rank -1)
    instead of raw clock stamps: the memo skips clock ticks, so this cache
    and a model that ticks on every access agree on this canonical form
    while their absolute stamps differ. *)
val snapshot_canonical : t -> (int * bool * int * int) array

val hits : t -> int
val misses : t -> int

(** Hits served by the MRU line memo, including batched {!memo_probe} +
    {!add_hits} credits from the fast tier. A subset of {!hits}. *)
val memo_hits : t -> int

(** Associative-walk hits resolved by the verified direct-mapped tag filter.
    A subset of {!hits}, disjoint from {!memo_hits}. *)
val filter_hits : t -> int

(** Number of valid lines currently installed. *)
val valid_lines : t -> int

(** Total line capacity. *)
val line_count : t -> int

(** Record hits, misses, hit rate and occupancy into [sink] under
    [prefix]-qualified names (e.g. ["l2.hit_rate"]). *)
val record_telemetry : t -> Telemetry.t -> prefix:string -> unit

