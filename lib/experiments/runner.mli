(** The experiment registry: every table and figure of the paper's
    evaluation, plus the future-work extensions, addressable by id. This is
    the single entry point behind both `bin/experiments.exe` and the bench
    harness. *)

type experiment = {
  id : string;  (** e.g. ["tab4"], ["fig3"], ["ext1"] *)
  title : string;
  run : Exp_common.ctx -> unit;
      (** prints the table(s)/series to the context's output *)
}

val all : experiment list
val find : string -> experiment option
val ids : unit -> string list

(** Everything one experiment leg leaves behind, as values. *)
type artifacts = {
  stdout : string;  (** exactly the bytes the leg prints *)
  traces : (string * string) list;
      (** (run label, JSONL trace), sorted; [[]] unless the spec traces *)
  obs : (string * string) list;
      (** (run label, snapshot JSON), sorted; [[]] unless the spec observes *)
  telemetry : Telemetry.t list;
      (** every run's sink, in run order; [[]] unless the spec asks for
          telemetry *)
}

(** Run one experiment under [spec] on a fresh context. *)
val capture : Run_spec.t -> experiment -> artifacts

(** Run a selection of experiments under [spec], with [spec.jobs > 1]
    fanning them across a domain pool. Each leg's stdout goes to [out]
    (default [print_string]) in list order, byte-identical to a serial
    run; the artifacts come back in list order too. *)
val run_list :
  ?out:(string -> unit) -> Run_spec.t -> experiment list -> artifacts list
