(* Regenerate the paper's tables and figures.

   Usage: experiments [IDS...]            (no arguments: run everything)
          experiments --list
          experiments --jobs 4            (fan runs across a domain pool)
          experiments --telemetry t.json  (write per-run telemetry JSON) *)

let list_ids () =
  List.iter
    (fun e ->
      Printf.printf "%-5s %s\n" e.Runner.id e.Runner.title)
    Runner.all

let experiments_for ids =
  List.map
    (fun id ->
      match Runner.find id with
      | Some e -> e
      | None ->
        Printf.eprintf "unknown experiment '%s' (try --list)\n" id;
        exit 1)
    ids

(* Per-run lines sorted by label (submission order is nondeterministic under
   --jobs > 1), then the cross-run aggregate as the final line. *)
let write_telemetry oc file runs =
  (* labels can collide (the same app/mode under different experiment
     configs), so tie-break on deterministic simulation counters to keep the
     file order independent of submission order *)
  let key t =
    ( Telemetry.label t,
      Telemetry.counter t "engine.total_cycles",
      Telemetry.counter t "taken.insns",
      Telemetry.counter t "engine.spawns" )
  in
  let runs = List.sort (fun a b -> compare (key a) (key b)) runs in
  List.iter (fun t -> output_string oc (Telemetry.to_json t ^ "\n")) runs;
  output_string oc (Telemetry.aggregate_json runs ^ "\n");
  close_out oc;
  Printf.eprintf "telemetry: %d runs -> %s\n%!" (List.length runs) file

open Cmdliner

let ids_arg =
  let doc = "Experiment ids to run (all when omitted)." in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let list_arg =
  let doc = "List the available experiments." in
  Arg.(value & flag & info [ "list" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains to fan experiments and sweep cells across. With 1 \
     (the default) everything runs serially in this domain; output is \
     byte-identical either way."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let telemetry_arg =
  let doc =
    "Write per-run telemetry to $(docv): one JSON object per run (sorted by \
     label) plus a final aggregate line."
  in
  Arg.(
    value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let opt_arg =
  let doc =
    "Optimization level every sweep compilation uses: O0 (default, the \
     reference emission), O1, or O2. Each level's full-sweep output is \
     itself deterministic (byte-identical serial or under $(b,--jobs)); \
     only O0 matches the committed reference output."
  in
  let parse s =
    match Opt.of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown optimization level '%s'" s))
  in
  let lvl = Arg.conv (parse, fun fmt _ -> Format.fprintf fmt "<level>") in
  Arg.(value & opt lvl Opt.O0 & info [ "opt"; "O" ] ~docv:"LEVEL" ~doc)

let trace_dir_arg =
  let doc =
    "Write every run's NT-Path lifecycle trace (derived from the engine's \
     per-spawn records, timed in simulated cycles) as one JSONL file per run \
     into $(docv). File names and contents are deterministic: \
     byte-identical serial or under $(b,--jobs)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let obs_dir_arg =
  let doc =
    "Capture every run's Coverage Observatory snapshot (frontier \
     attribution, prime-path coverage, tier occupancy) and write one JSON \
     file per run into $(docv). File names and contents are deterministic: \
     byte-identical serial or under $(b,--jobs)."
  in
  Arg.(value & opt (some string) None & info [ "obs-dir" ] ~docv:"DIR" ~doc)

(* Output directories are created before any leg runs, so a bad path fails
   fast instead of discarding a finished (possibly minutes-long) sweep. *)
let mkdir_or_exit flag dir =
  try Artifact_dir.mkdir_p dir
  with Sys_error msg ->
    Printf.eprintf "experiments: cannot create %s %s (%s)\n%!" flag dir msg;
    exit 1

let main list jobs telemetry opt trace_dir obs_dir ids =
  if list then list_ids ()
  else begin
    let spec =
      {
        Run_spec.opt;
        trace = trace_dir <> None;
        obs = obs_dir <> None;
        telemetry = telemetry <> None;
        jobs = max 1 jobs;
      }
    in
    Option.iter (mkdir_or_exit "--trace-dir") trace_dir;
    Option.iter (mkdir_or_exit "--obs-dir") obs_dir;
    (* open before the (possibly minutes-long) sweep so a bad path fails
       fast instead of discarding finished runs *)
    let telemetry_oc =
      Option.map
        (fun file ->
          try (open_out file, file)
          with Sys_error msg ->
            Printf.eprintf "cannot open telemetry file: %s\n" msg;
            exit 1)
        telemetry
    in
    let experiments =
      match ids with [] -> Runner.all | ids -> experiments_for ids
    in
    let legs = Runner.run_list spec experiments in
    let gather f = List.concat_map f legs in
    Option.iter
      (fun dir ->
        let files =
          Trace.save_dir ~dir (gather (fun a -> a.Runner.traces))
        in
        Printf.eprintf "traces: %d runs -> %s\n%!" (List.length files) dir)
      trace_dir;
    Option.iter
      (fun dir ->
        let files = Obs.save_dir ~dir (gather (fun a -> a.Runner.obs)) in
        Printf.eprintf "obs: %d runs -> %s\n%!" (List.length files) dir)
      obs_dir;
    Option.iter
      (fun (oc, file) ->
        write_telemetry oc file (gather (fun a -> a.Runner.telemetry)))
      telemetry_oc
  end

let cmd =
  let doc = "regenerate the PathExpander paper's tables and figures" in
  let info = Cmd.info "experiments" ~doc in
  Cmd.v info
    Term.(
      const main $ list_arg $ jobs_arg $ telemetry_arg $ opt_arg
      $ trace_dir_arg $ obs_dir_arg $ ids_arg)

let () = exit (Cmd.eval cmd)
