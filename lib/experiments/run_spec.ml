type t = {
  opt : Opt.level;
  trace : bool;
  obs : bool;
  telemetry : bool;
  jobs : int;
}

let default =
  {
    opt = Opt.O0;
    trace = false;
    obs = false;
    telemetry = false;
    jobs = 1;
  }
