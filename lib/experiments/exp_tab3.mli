(** Table 3 — applications and bugs evaluated. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
