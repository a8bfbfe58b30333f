type t = {
  opt : Opt.level;
  selective : bool;
  fastpath : bool;
  trace : bool;
  obs : bool;
  telemetry : bool;
  jobs : int;
}

let default =
  {
    opt = Opt.O0;
    selective = true;
    fastpath = true;
    trace = false;
    obs = false;
    telemetry = false;
    jobs = 1;
  }
