(** Section 7.3 — cumulative coverage over generated inputs. *)

(** Print the per-application progression and the average improvement
    after [inputs] (default 50) generated test cases. *)
val run : ?inputs:int -> Exp_common.ctx -> unit
