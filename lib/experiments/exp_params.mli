(** Section 7.6 — MaxNTPathLength / threshold / MaxNumNTPaths sweeps. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
