(** Deterministic JSON emission helpers plus a small strict parser.

    The emitters are shared by {!Telemetry}, the NT-Path trace and the
    Coverage Observatory; the parser exists so tests and CI can round-trip
    every emitted line without a JSON library dependency. *)

(** Backslash-escape a string for embedding in a JSON string literal. *)
val escape : string -> string

(** A quoted, escaped JSON string literal. *)
val jstr : string -> string

(** Deterministic float rendering ([1.0] for integers, [%.6g] otherwise). *)
val jfloat : float -> string

(** [jobj fields] renders an object; keys are emitted in list order. *)
val jobj : (string * string) list -> string

(** [jarr items] renders already-serialised items as an array. *)
val jarr : string list -> string

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

(** Strict parse of one complete JSON document. *)
val parse : string -> (value, string) result

(** Object member lookup ([None] on missing key or non-object). *)
val member : string -> value -> value option
