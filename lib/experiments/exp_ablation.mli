(** Section 4.2 — following non-taken edges inside NT-Paths. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
