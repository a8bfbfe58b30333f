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

(* Destructured with every field named and no wildcard, like
   [Pe_config.fingerprint]: a new field is a compile error (warning 9 is
   fatal in the dev profile) until it is rendered or deliberately dropped. *)
let fingerprint spec =
  let {
    opt;
    selective;
    fastpath;
    trace;
    obs;
    telemetry;
    jobs = _ (* output bytes are identical at any --jobs *);
  } =
    spec
  in
  String.concat ";"
    [
      "opt=" ^ Opt.to_string opt;
      "selective=" ^ string_of_bool selective;
      "fastpath=" ^ string_of_bool fastpath;
      "trace=" ^ string_of_bool trace;
      "obs=" ^ string_of_bool obs;
      "telemetry=" ^ string_of_bool telemetry;
    ]
