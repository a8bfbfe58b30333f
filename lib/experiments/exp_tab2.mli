(** Table 2 — simulated architecture parameters. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
