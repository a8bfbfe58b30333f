(** The run spec: every sweep-wide setting a run depends on, as one
    explicit value. The front ends ([bin/experiments.exe], [bin/pexp.exe],
    [bench/main.exe]) build it from their flags and environment; the
    experiment harness hands it to every run through {!Exp_common.ctx}. *)

type t = {
  opt : Opt.level;  (** optimization level of every compilation *)
  selective : bool;
      (** AND-ed into each run's {!Pe_config.t.selective}: [false] runs
          every instruction through the hooked step *)
  fastpath : bool;  (** cache-probe fast path of every machine's caches *)
  trace : bool;
      (** give every run an enabled flight recorder and keep its trace *)
  obs : bool;
      (** arm the Coverage Observatory's bookkeeping in every run and keep
          a snapshot of each {!Exp_common.run_app} run *)
  telemetry : bool;  (** keep every run's telemetry sink *)
  jobs : int;  (** domains to fan experiments and sweep cells across (>= 1) *)
}

(** [O0], selective and fast path on, nothing captured, one domain. *)
val default : t
