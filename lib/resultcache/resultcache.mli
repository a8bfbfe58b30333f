(** Content-addressed whole-run result cache (DESIGN.md §16).

    Determinism is the house invariant: a run's observable output — its
    report text, flight-recorder trace, Coverage Observatory snapshot — is a
    pure function of (program image, configuration, toggles, build). That
    makes finished runs perfectly cacheable: a warm sweep replays the stored
    artifact bundle by copy instead of re-simulating.

    The cache is an on-disk content-addressed store: one directory per key
    hash, holding a checksummed [manifest.json] plus the artifact bytes.
    Every load verifies sizes and MD5 checksums and re-checks the full
    canonical key text (never just its hash); any mismatch, truncation or
    parse failure is counted and treated as a miss — never a crash, never a
    wrong result.

    Probing and storing are cheap relative to a simulation run but are not
    lock-free; orchestrators (the experiment runner, the bench harness)
    call them from a single domain. A mutex keeps concurrent use safe.

    The kill switch: when the environment variable [PEXP_RESULT_CACHE] is
    ["0"], every front end (the CLIs and the bench harness read it) ignores
    its cache directory, restoring exact uncached behavior. *)

(** Result-schema version. Part of every key (and stamped into manifests):
    bump it whenever the layout or meaning of cached artifacts changes, so
    stale entries miss instead of aliasing. *)
val schema_version : int

(** Manifest-layout version stamped into [manifest.json]. *)
val manifest_schema_version : int

(** MD5 hex of a string — the content-hash primitive for key components
    (program images, inputs). *)
val digest_hex : string -> string

(** MD5 hex of any marshalable value (used for compiled program images;
    the image is plain data, so the marshaling is deterministic). *)
val digest_value : 'a -> string

(** MD5 hex of the running executable, computed once. Including it in a key
    makes any rebuild invalidate the cache — the conservative "build
    version" axis: no code change can ever serve a stale result. *)
val build_id : unit -> string

(** {1 Keys} *)

type key

(** [key parts] builds a canonical fingerprint from named components. The
    canonical text is a JSON object with keys sorted, so two part lists
    differing in any component (or listing different components) produce
    different keys. Duplicate part names raise [Invalid_argument]. *)
val key : (string * string) list -> key

(** MD5 hex of the canonical key text — the entry's directory name. The
    full text is stored in the manifest and re-checked on load, so hash
    collisions can never alias entries. *)
val key_hash : key -> string

(** {1 Artifact bundles} *)

(** The complete deterministic product of a run (or of one experiment leg):
    its stdout and a list of named auxiliary artifacts — exported JSONL
    traces, observatory JSON — in a canonical order chosen by the caller.
    Bundles round-trip through the store byte-for-byte. *)
type bundle = {
  stdout : string;
  artifacts : (string * string) list;  (** (logical name, content) *)
}

(** {1 The store} *)

type t

(** [create ~dir ()] opens an on-disk store, creating [dir] and any missing
    parents ({!Artifact_dir.mkdir_p}; raises [Sys_error] when that fails).
    [max_entries] bounds the store (default 256 entries; storing past the
    bound evicts the oldest entries by modification time). *)
val create : ?max_entries:int -> dir:string -> unit -> t

val dir : t -> string

(** Probe the store. A hit verifies the manifest, key text, sizes and
    checksums; any defect is a counted miss. *)
val find : t -> key -> bundle option

(** Store a bundle under [key]. The entry is written to a temporary
    directory and renamed into place, so a concurrent reader never observes
    a torn entry; an existing entry is replaced. Best-effort: an I/O
    failure leaves the store without the entry. *)
val store : t -> key -> bundle -> unit

(** {1 Statistics} *)

(** Counters (exact names): [resultcache.hit_disk], [resultcache.miss],
    [resultcache.store], [resultcache.corrupt], [resultcache.evict],
    [resultcache.bytes_read], [resultcache.bytes_written]. Kept on a
    {!Telemetry} sink labelled ["resultcache"]. *)
val stat : t -> string -> int

(** Fraction of probes that hit since the last
    {!reset_stats} ([0.] when no probes happened). *)
val hit_rate : t -> float

val reset_stats : t -> unit
