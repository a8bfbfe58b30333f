(** iWatcher-style hardware watchpoint unit.

    Detectors register address ranges (red zones, freed blocks); the CPU
    consults the unit on every data access and files a report for each range
    that contains the address. Changes made during an NT-Path are journaled
    so the sandbox can undo them on squash.

    The range list decides which sites fire; an exact per-word filter
    beside it ({!watched}) answers "is this word in any range" in O(1),
    so the fast tier stops only before an access that can fire. The
    filter covers the machine's memory [\[0, size)]: a range is clipped
    to it before marking. *)

type t

(** Which accesses trigger a range (real iWatcher distinguishes read and
    write monitoring). *)
type mode = Watch_read | Watch_write | Watch_both

(** Opaque undo token for one mutation. *)
type journal_entry

(** A unit for a memory of [size] words ({!Memory.size}). *)
val create : size:int -> t

(** Watch [\[lo, hi)], firing report site [site] on access; [mode] defaults
    to {!Watch_both}. An empty or inverted range ([hi <= lo]) watches
    nothing but is still listed (unwatch and undo treat it like any
    other). *)
val watch : ?mode:mode -> t -> lo:int -> hi:int -> site:int -> journal_entry

(** Remove every range fully inside [\[lo, hi)]. *)
val unwatch : t -> lo:int -> hi:int -> journal_entry

(** Sites of all ranges containing [addr] that match this access kind. *)
val hit_sites : t -> is_write:bool -> int -> int list

(** Some range contains [addr]: the list oracle, walking every range. *)
val is_watched : t -> int -> bool

(** [is_watched] for [addr] in [\[0, size)], in O(1) from the per-word
    cover counts; [false] outside memory. *)
val watched : t -> int -> bool

(** Undo one journaled mutation (NT-Path squash). *)
val undo : t -> journal_entry -> unit

val count : t -> int

(** [count t = 0], without walking the range list — for per-segment and
    per-access checks. *)
val is_empty : t -> bool
