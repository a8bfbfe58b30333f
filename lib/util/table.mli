(** ASCII table rendering for experiment output. *)

type align = Left | Right

(** [render ~header rows] renders a boxed table. All rows must have the same
    arity as [header]; [aligns], when given, must match too.
    Raises [Invalid_argument] otherwise. *)
val render : ?aligns:align list -> header:string list -> string list list -> string

(** Format a float as a percentage with one decimal: [12.3%]. *)
val fpct : float -> string

(** One-decimal float. *)
val f1 : float -> string

(** Two-decimal float. *)
val f2 : float -> string

(** [string_of_int]. *)
val int : int -> string
