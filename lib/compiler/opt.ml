(* Optimization levels for the nanopass MiniC pipeline.

   O0 is the house-determinism anchor: instruction selection and label
   lowering only, producing images byte-identical to the historical
   single-pass code generator. O1 adds the machine-independent cleanups and
   cheap selection improvements; O2 adds register allocation. Each level is
   itself deterministic — the level is simply another axis of the sweep. *)

type level = O0 | O1 | O2

let to_string = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2"

let of_string = function
  | "0" | "O0" | "o0" -> Some O0
  | "1" | "O1" | "o1" -> Some O1
  | "2" | "O2" | "o2" -> Some O2
  | _ -> None

let at_least lv floor =
  let rank = function O0 -> 0 | O1 -> 1 | O2 -> 2 in
  rank lv >= rank floor
