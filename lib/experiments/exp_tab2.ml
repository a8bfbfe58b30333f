(* Table 2 — parameters of the simulated architecture. *)

let run ctx =
  Exp_common.heading ctx "Table 2: Parameters of the simulation";
  Exp_common.table ctx ~header:[ "Parameter"; "Value" ]
    (Machine_config.to_rows Machine_config.default)
