(** PathExpander execution engines (standard configuration and CMP
    optimisation), plus the baseline monitored run.

    Functional behaviour of NT-Paths is identical in both configurations;
    they differ in the timing model: the standard configuration serialises
    NT-Path execution on the primary core (plus spawn/squash overheads),
    while the CMP option schedules each NT-Path on the earliest-free idle
    core and the program ends only when the last outstanding NT-Path has
    squashed (commit/squash-token protocol). *)

type outcome = [ `Halted | `Exited of int | `Faulted of Cpu.fault | `Fuel_exhausted ]

type result = {
  outcome : outcome;
  taken_insns : int;  (** instructions retired by the taken path *)
  taken_branches : int;
  taken_stores : int;
  taken_cycles : int;  (** primary-core cycles (taken path + spawn overheads) *)
  total_cycles : int;  (** end-to-end cycles under the configured mode *)
  nt_records : Nt_path.record list;
  spawns : int;
  skipped_spawns : int;  (** CMP: spawns suppressed by [MaxNumNTPaths] *)
  profiled_overrides : int;
      (** spawns whose condition variable was fixed from observed history
          (the profiled-fixing extension) rather than by the boundary stub *)
  coverage : Coverage.t;
  fast_insns : int;
      (** taken-path instructions retired on the fast tier ({!Fast_loop});
          0 when the tick left no segment a budget *)
  fast_segments : int;
      (** fast segments that retired at least one instruction — each ends
          at a deoptimization point (spawn-candidate branch, syscall,
          detector event, fault) or a fuel/counter-reset boundary; a segment
          that stops on its first instruction is not counted *)
  skipped_edges : int list;
      (** Coverage Observatory only (armed by [run ~obs:true]):
          encoded edges [2*pc + dir] whose spawn was suppressed by the CMP
          outstanding-path budget, sorted distinct; [[]] when unarmed *)
}

val outcome_name : outcome -> string

(** The outcome a taken-path drive's exit stands for: [Limit] is fuel
    exhaustion. *)
val outcome_of_exit : Fast_loop.exit -> outcome

(** Run the program loaded in [machine] under the given PathExpander
    configuration. [fuel] bounds taken-path instructions as a safety net.
    [obs] (default off) arms the Coverage Observatory's bookkeeping
    (DESIGN.md §15): frontier attribution, the skipped-edge list and
    deopt-cause counters. Arming changes no simulated behaviour. *)
val run : ?config:Pe_config.t -> ?fuel:int -> ?obs:bool -> Machine.t -> result
