(* Command-line entry of the campaign benchmark:

     main.exe --workload detect|compile-run --seed N --seconds S
              --trace 0|1 [--part I]

   Prints the simulated-statistics digest, then, as the last line, one JSON
   object with the run's metrics: the end-to-end ones with [--trace 0], the
   per-layer ones with [--trace 1]. An untraced run starts one process per
   part of its op sequence, this executable with [--part I], which sets up,
   runs part I and writes it to standard output with [Marshal]. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload detect|compile-run --seed N \
     --seconds S --trace 0|1 [--part I]";
  exit 2

let () =
  let workload = ref None and seed = ref None in
  let seconds = ref None and trace = ref None and part = ref None in
  let int_arg r s =
    match int_of_string_opt s with Some n -> r := Some n | None -> usage ()
  in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := Campaign.workload_of_string v;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg trace v; parse rest
    | "--part" :: v :: rest -> int_arg part v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  let args = List.tl (Array.to_list Sys.argv) in
  parse args;
  match (!workload, !seed, !seconds, !trace, !part) with
  | Some workload, Some seed, Some seconds, Some 0, Some part
    when seconds > 0 && part >= 0 && part < Campaign.parts ->
    let ops = Campaign.op_count workload ~seconds in
    let p = Campaign.run_part workload ~seed ~ops ~part in
    set_binary_mode_out stdout true;
    Marshal.to_channel stdout p [];
    flush stdout
  | Some workload, Some seed, Some seconds, Some ((0 | 1) as trace), None
    when seconds > 0 ->
    let ops = Campaign.op_count workload ~seconds in
    let o =
      Campaign.measure
        ~spawn:(Campaign.spawn_part ~exe:Sys.executable_name args)
        workload ~seed ~ops ~trace:(trace = 1)
    in
    Printf.printf "digest %s seed=%d ops=%d sim_md5=%s\n"
      (Campaign.workload_name workload) seed ops o.Campaign.digest;
    print_endline (Campaign.to_json o)
  | _ -> usage ()
