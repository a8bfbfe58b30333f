(** Figure 1 — the motivating print_tokens2 v10 demonstration. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
