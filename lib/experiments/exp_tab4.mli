(** Table 4 — bug detection results, baseline vs PathExpander. *)

(** Buggy applications containing memory bugs (the CCured/iWatcher rows). *)
val memory_apps : unit -> Workload.t list

(** Buggy applications containing semantic bugs (the assertions rows). *)
val semantic_apps : unit -> Workload.t list

(** Print the table and the distinct-bug totals. *)
val run : Exp_common.ctx -> unit
