(** Section 7.3 — single-input branch and statement coverage. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
