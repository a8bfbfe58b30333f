(** The paper's future work, implemented: OS syscall sandboxing,
    random NT-Path selection, the DIDUCE-style detector and profiled
    fixing. *)

(** Print this experiment's table(s)/series to the context's output. *)
val run : Exp_common.ctx -> unit
