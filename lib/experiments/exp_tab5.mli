(** Table 5 — false positives and detections before/after fixing. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
