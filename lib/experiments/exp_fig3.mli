(** Figure 3 — Crash-Latency and Unsafe-Latency CDFs (Section 3.2). *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
