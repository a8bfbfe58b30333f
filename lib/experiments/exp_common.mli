(** Shared plumbing for the experiment modules. *)

(** What one experiment leg runs with: the {!Run_spec.t}, where its report
    text goes, and what its runs leave behind. Every run made through
    {!run_app} or {!engine} appends its NT-Path trace and telemetry
    sink (when the spec asks for them) under a mutex, so runs fanned out by
    {!par_map} on other domains land in the same context. *)
type ctx

(** A fresh context with empty accumulators; report text goes to [out]. *)
val context : spec:Run_spec.t -> out:(string -> unit) -> ctx

(** What the leg's runs left behind: [(label, JSONL)] traces, [(label,
    JSON)] observatory snapshots (no trailing newline) and telemetry sinks,
    each in the order the runs finished. *)
val collected :
  ctx -> (string * string) list * (string * string) list * Telemetry.t list

(** {1 Report output} *)

val print : ctx -> string -> unit
val printf : ctx -> ('a, unit, string, unit) format4 -> 'a

(** {!Table.render} followed by a newline. *)
val table :
  ctx ->
  ?aligns:Table.align list ->
  header:string list ->
  string list list ->
  unit

val heading : ctx -> string -> unit

(** {1 Runs} *)

type run = {
  compiled : Compile.compiled;
  machine : Machine.t;
  result : Engine.result;
}

(** Deterministic fan-out for workload×config sweeps: [par_map ctx f xs]
    maps [f] over [xs] on up to the spec's [jobs] domains, returning
    results in input order — parallel sweeps print byte-identically to
    serial ones. Runs serially when the budget is 1 or when already inside
    a pool worker. *)
val par_map : ctx -> ('a -> 'b) -> 'a list -> 'b list

(** {!Workload.compile} at the spec's optimization level. *)
val compile :
  ctx -> ?detector:Codegen.detector -> ?fixing:bool -> ?bug:int ->
  Workload.t -> Compile.compiled

(** Run the engine under [config] on a machine that has made no run yet;
    the spec's [obs] arms the observatory bookkeeping. Appends the run's
    trace and telemetry to the context. *)
val engine : ctx -> config:Pe_config.t -> Machine.t -> Engine.result

(** Compile and execute one workload configuration through {!compile} and
    {!engine}, and — when the spec asks for it — append the run's
    observatory snapshot. [config] overrides the workload's default
    PathExpander configuration ([mode] is ignored when [config] is given);
    [fixing] gates both the compiled stubs and the engine behaviour. *)
val run_app :
  ctx ->
  ?detector:Codegen.detector ->
  ?fixing:bool ->
  ?bug:int ->
  ?mode:Pe_config.mode ->
  ?config:Pe_config.t ->
  ?input:string ->
  Workload.t ->
  run

(** {1 Presentation helpers} *)

(** Table 4/5 row labels, e.g. ["Software Tool (CCured)"]. *)
val detector_label : Codegen.detector -> string

(** Bugs of the workload that the detector can detect. *)
val bugs_for : Workload.t -> Codegen.detector -> Bug.t list

val overhead_pct : baseline:int -> with_pe:int -> float
