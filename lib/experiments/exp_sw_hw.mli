(** Section 7.5 — hardware vs software PathExpander overheads. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
