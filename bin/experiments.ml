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

let selective_arg =
  let doc =
    "Run taken paths through the selective fast/slow interpreter split \
     (coverage-preserving selective detection). Output is byte-identical \
     either way; $(b,--selective=false) pins every run to the fully \
     instrumented interpreter, for equivalence checks and timing baselines."
  in
  Arg.(value & opt bool true & info [ "selective" ] ~docv:"BOOL" ~doc)

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
    "Capture every run's flight-recorder trace (NT-Path lifecycle events in \
     sim time) and write one JSONL file per run into $(docv). File names and \
     contents are deterministic: byte-identical serial or under $(b,--jobs)."
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

let cache_dir_arg =
  let doc =
    "Serve each experiment leg from the content-addressed result cache in \
     $(docv) (created if missing), storing every miss. Determinism makes \
     runs perfectly cacheable: a warm sweep's stdout and every exported \
     trace/obs artifact are byte-identical to a cold (or uncached) run's. \
     Ignored when PEXP_RESULT_CACHE=0 (the kill switch) or when \
     $(b,--telemetry) is given (telemetry contains wall-clock timers, \
     which are not replayable)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* Byte counts and hit/miss counters of a cached sweep, on stderr. *)
let report_cache cache =
  let stat = Resultcache.stat cache in
  Printf.eprintf
    "result cache: %d hits, %d misses, %d stored, %d corrupt; %d bytes read, \
     %d written -> %s\n\
     %!"
    (stat "resultcache.hit_disk")
    (stat "resultcache.miss") (stat "resultcache.store")
    (stat "resultcache.corrupt")
    (stat "resultcache.bytes_read")
    (stat "resultcache.bytes_written")
    (Resultcache.dir cache)

(* Output directories are created before any leg runs, so a bad path fails
   fast instead of discarding a finished (possibly minutes-long) sweep. *)
let create_or_exit flag create dir =
  try create dir
  with Sys_error msg ->
    Printf.eprintf "experiments: cannot create %s %s (%s)\n%!" flag dir msg;
    exit 1

let main list jobs telemetry selective opt trace_dir obs_dir cache_dir ids =
  if list then list_ids ()
  else begin
    let spec =
      {
        Run_spec.opt;
        selective;
        fastpath = Sys.getenv_opt "PEXP_CACHE_FASTPATH" <> Some "0";
        trace = trace_dir <> None;
        obs = obs_dir <> None;
        telemetry = telemetry <> None;
        jobs = max 1 jobs;
      }
    in
    let cache =
      match cache_dir with
      | None -> None
      | Some dir when Sys.getenv_opt "PEXP_RESULT_CACHE" = Some "0" ->
        Printf.eprintf
          "result cache: disabled by PEXP_RESULT_CACHE=0 (ignoring %s)\n%!"
          dir;
        None
      | Some dir when telemetry <> None ->
        Printf.eprintf
          "result cache: disabled under --telemetry (ignoring %s)\n%!" dir;
        None
      | Some dir ->
        Some
          (create_or_exit "--cache-dir"
             (fun dir -> Resultcache.create ~dir ())
             dir)
    in
    Option.iter (create_or_exit "--trace-dir" Artifact_dir.mkdir_p) trace_dir;
    Option.iter (create_or_exit "--obs-dir" Artifact_dir.mkdir_p) obs_dir;
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
    let legs =
      match cache with
      | Some cache -> Runner.run_cached ~cache spec experiments
      | None -> Runner.run_list spec experiments
    in
    let gather f = List.concat_map f legs in
    Option.iter
      (fun dir ->
        let files =
          Recorder.save_dir ~dir (gather (fun a -> a.Runner.traces))
        in
        Printf.eprintf "traces: %d runs -> %s\n%!" (List.length files) dir)
      trace_dir;
    Option.iter
      (fun dir ->
        let files = Obs.save_dir ~dir (gather (fun a -> a.Runner.obs)) in
        Printf.eprintf "obs: %d runs -> %s\n%!" (List.length files) dir)
      obs_dir;
    Option.iter report_cache cache;
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
      const main $ list_arg $ jobs_arg $ telemetry_arg $ selective_arg
      $ opt_arg $ trace_dir_arg $ obs_dir_arg $ cache_dir_arg $ ids_arg)

let () = exit (Cmd.eval cmd)
