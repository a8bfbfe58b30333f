(** The pure-software PathExpander implementation (Section 5).

    Functionally mirrors the hardware standard configuration — the same
    NT-Path selection policy, run serially through the same [Nt_path]
    runner and sandbox (with no line limit: software has no L1 buffer to
    overflow). What is software's own is an exact exercise-history table
    instead of the BTB counters, and the cost: the run is priced with
    {!Pin_model} (dispatch dilation, per-branch analysis, checkpointing
    and restore-log upkeep), which is where the paper's 3-4 orders of
    magnitude appear. [fuel] bounds the taken path's instructions, as in
    [Engine.run]. *)

type result = {
  outcome : Engine.outcome;
  coverage : Coverage.t;
  spawns : int;
  nt_records : Nt_path.record list;
  accounting : Pin_model.accounting;
}

val run :
  ?config:Pe_config.t -> ?model:Pin_model.t -> ?fuel:int -> Machine.t -> result
