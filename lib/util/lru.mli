(** A bounded least-recently-used memo table, safe to share between
    domains (one mutex guards every operation). *)

type ('k, 'v) t

(** An empty table holding at most [capacity] entries; raises
    [Invalid_argument] when [capacity < 1]. *)
val create : capacity:int -> ('k, 'v) t

(** The value memoised under the key, if any; a hit makes the entry the
    most recently used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Memoise a value unless the key is already present (a racing duplicate
    keeps the first). Inserting into a full table first evicts its least
    recently used entry. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** Entries currently memoised. *)
val length : ('k, 'v) t -> int

(** Entries ever evicted by the capacity bound. *)
val evictions : ('k, 'v) t -> int
