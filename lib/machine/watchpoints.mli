(** iWatcher-style hardware watchpoint unit.

    Detectors register address ranges (red zones, freed blocks); the CPU
    consults the unit on every data access and files a report for each range
    that contains the address. Changes made during an NT-Path are journaled
    so the sandbox can undo them on squash. *)

type t

(** Which accesses trigger a range (real iWatcher distinguishes read and
    write monitoring). *)
type mode = Watch_read | Watch_write | Watch_both

(** Opaque undo token for one mutation. *)
type journal_entry

val create : unit -> t

(** Watch [\[lo, hi)], firing report site [site] on access; [mode] defaults
    to {!Watch_both}. *)
val watch : ?mode:mode -> t -> lo:int -> hi:int -> site:int -> journal_entry

(** Remove every range fully inside [\[lo, hi)]. *)
val unwatch : t -> lo:int -> hi:int -> journal_entry

(** Sites of all ranges containing [addr] that match this access kind. *)
val hit_sites : t -> is_write:bool -> int -> int list

val is_watched : t -> int -> bool

(** Undo one journaled mutation (NT-Path squash). *)
val undo : t -> journal_entry -> unit

val count : t -> int

(** [count t = 0], without walking the range list — for per-iteration
    checks. *)
val is_empty : t -> bool
