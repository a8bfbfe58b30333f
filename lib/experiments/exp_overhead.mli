(** Section 7.4 — standard-configuration vs CMP-option overhead. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
