(** Deterministic parallel map over an OCaml 5 Domain pool.

    [map ~jobs f xs] applies [f] to every element of [xs] on up to [jobs]
    domains and returns results in input order — a parallel run is
    byte-identical to a serial one whenever [f] is deterministic. With
    [jobs <= 1], a single-element list, or when called from inside another
    [map]'s worker (no nested domain explosions), it degrades to plain
    [List.map] on the calling domain. The first worker exception is
    re-raised on the caller after all domains are joined. *)

(** [Domain.recommended_domain_count ()] — the default for [?jobs]. *)
val default_jobs : unit -> int

(** Whether the current domain is a [map] worker (nested maps run serial). *)
val in_worker : unit -> bool

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
