(** Optimization levels for the nanopass MiniC pipeline.

    [O0] runs instruction selection and label lowering only and is
    byte-identical to the historical single-pass code generator — the house
    determinism anchor. [O1] adds desugaring, constant folding, dead-code
    elimination, unused-function removal, immediate-operand selection and
    jump optimization. [O2] additionally allocates hot scalar locals to
    machine registers. Every level is deterministic. *)

type level = O0 | O1 | O2

val to_string : level -> string

(** Accepts ["0"], ["O0"], ["o0"] (same for 1 and 2). *)
val of_string : string -> level option

(** [at_least lv floor] — level ordering O0 < O1 < O2. *)
val at_least : level -> level -> bool
