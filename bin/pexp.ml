(* pexp — run one workload under a dynamic bug detector, with or without
   PathExpander, and report what the detector saw.

   Examples:
     pexp --app print_tokens2 --bug 10 --detector ccured --mode standard
     pexp --app 164.gzip --mode cmp --stats
     pexp --list *)

let detector_of_string = function
  | "none" -> Ok Codegen.No_detector
  | "ccured" -> Ok Codegen.Ccured
  | "iwatcher" -> Ok Codegen.Iwatcher
  | "assertions" -> Ok Codegen.Assertions
  | s -> Error (Printf.sprintf "unknown detector '%s'" s)

let mode_of_string = function
  | "baseline" -> Ok Pe_config.Baseline
  | "standard" -> Ok Pe_config.Standard
  | "cmp" -> Ok Pe_config.Cmp
  | s -> Error (Printf.sprintf "unknown mode '%s'" s)

let list_apps () =
  List.iter
    (fun (w : Workload.t) ->
      Printf.printf "%-14s %-10s %2d bugs  %s\n" w.Workload.name
        (Workload.app_class_name w.Workload.app_class)
        (Workload.bug_count w) w.Workload.descr)
    Registry.all

let termination_summary records =
  let count p = List.length (List.filter p records) in
  Printf.printf
    "NT-Path terminations: %d max-length, %d crash, %d unsafe, %d program-end, %d overflow\n"
    (count (fun (r : Nt_path.record) -> r.Nt_path.termination = Nt_path.T_max_length))
    (count Nt_path.is_crash)
    (count Nt_path.is_unsafe)
    (count (fun r -> r.Nt_path.termination = Nt_path.T_program_end))
    (count (fun r -> r.Nt_path.termination = Nt_path.T_cache_overflow))

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

let run_one ~spec ~app ~detector ~mode ~bug ~fixing ~seed ~random_input
    ~stats ~disasm ~trace ~trace_chrome ~dump_pass ~obs ~prometheus =
  let opt = spec.Run_spec.opt in
  let workload = Registry.find app in
  let compiled =
    match dump_pass with
    | None -> Workload.compile ~detector ~fixing ~opt ?bug workload
    | Some pass ->
      if not (List.mem pass Pipeline.pass_names) then begin
        Printf.eprintf "unknown pass '%s' (expected one of: %s)\n" pass
          (String.concat ", " Pipeline.pass_names);
        exit 2
      end;
      (* Bypass the memo so the dump callback actually observes a fresh
         compilation. *)
      let dump name text =
        if name = pass then begin
          Printf.printf "=== after %s ===\n" name;
          print_string text;
          if text <> "" && text.[String.length text - 1] <> '\n' then
            print_newline ()
        end
      in
      Compile.compile
        ~options:{ Codegen.detector; fixing }
        ~level:opt ~dump
        (workload.Workload.source ~bug)
  in
  let input =
    if random_input then workload.Workload.gen_input (Rng.create seed)
    else workload.Workload.default_input
  in
  let config = { (Workload.pe_config ~mode workload) with Pe_config.fixing } in
  if disasm then print_string (Program.disassemble compiled.Compile.program);
  let recorder =
    if spec.Run_spec.trace then Recorder.create () else Recorder.disabled
  in
  let machine = Machine.create ~input ~recorder compiled.Compile.program in
  if obs <> None || prometheus <> None then
    Telemetry.set_label machine.Machine.telemetry
      (Printf.sprintf "%s/%s" app (Pe_config.mode_name mode));
  (* With a snapshot requested, the run also keeps the observatory's
     bookkeeping (deopt-cause classification, NT sequence stamps). *)
  let result = Engine.run ~obs:spec.Run_spec.obs ~config machine in
  (match obs with
   | None -> ()
   | Some file ->
     let snap =
       Obs.snapshot
         ~label:(Printf.sprintf "%s/%s" app (Pe_config.mode_name mode))
         ~program:compiled.Compile.program ~machine ~result ~config
     in
     write_file file (Obs.to_json snap ^ "\n");
     Printf.eprintf "obs: snapshot -> %s\n%!" file);
  (match prometheus with
   | None -> ()
   | Some file ->
     write_file file (Telemetry.to_prometheus machine.Machine.telemetry);
     Printf.eprintf "prometheus: metrics -> %s\n%!" file);
  (* Flight-recorder exports before the human-readable report, so a crash
     in the analysis below can't lose a captured trace. *)
  let dump () =
    Recorder.dump
      ~label:(Printf.sprintf "%s/%s" app (Pe_config.mode_name mode))
      recorder
  in
  (match trace with
   | None -> ()
   | Some file ->
     write_file file (Recorder.jsonl_of_dump (dump ()));
     Printf.eprintf "trace: %d events -> %s\n%!" (Recorder.length recorder)
       file);
  (match trace_chrome with
   | None -> ()
   | Some file ->
     write_file file (Recorder.chrome_of_dump (dump ()));
     Printf.eprintf "chrome trace: %d events -> %s\n%!"
       (Recorder.length recorder) file);
  Printf.printf "%s under %s (%s): %s\n" app
    (Codegen.detector_name detector)
    (Pe_config.mode_name mode)
    (Engine.outcome_name result.Engine.outcome);
  Printf.printf
    "taken path: %d instructions, %d cycles; total %d cycles; %d NT-Paths\n"
    result.Engine.taken_insns result.Engine.taken_cycles
    result.Engine.total_cycles result.Engine.spawns;
  Printf.printf "branch coverage: %.1f%% taken-path, %.1f%% with NT-Paths\n"
    (Coverage.taken_pct result.Engine.coverage)
    (Coverage.combined_pct result.Engine.coverage);
  if stats then begin
    termination_summary result.Engine.nt_records;
    Printf.printf "selective fast tier: %d instructions in %d segments\n"
      result.Engine.fast_insns result.Engine.fast_segments
  end;
  let reports = machine.Machine.reports in
  Printf.printf "detector reports: %d (%d distinct sites)\n"
    (Report.count reports)
    (List.length (Report.distinct_sites reports));
  List.iter
    (fun id ->
      Printf.printf "  %s\n"
        (Site.to_string compiled.Compile.program.Program.sites.(id)))
    (Report.distinct_sites reports);
  match bug with
  | None -> ()
  | Some version ->
    let bug = Workload.find_bug workload version in
    let analysis = Analysis.analyze ~compiled ~machine ~bug in
    Printf.printf
      "bug %s: %s (taken-path: %b, NT-Path: %b, %d false positives)\n"
      bug.Bug.id
      (if Analysis.detected analysis then "DETECTED" else "not detected")
      analysis.Analysis.detected_on_taken_path
      analysis.Analysis.detected_on_nt_path
      (Analysis.false_positive_count analysis)

open Cmdliner

let conv_of parse =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), fun fmt _ ->
      Format.fprintf fmt "<opt>")

let app_arg =
  Arg.(value & opt string "print_tokens2" & info [ "app"; "a" ] ~doc:"Workload name.")

let detector_arg =
  Arg.(
    value
    & opt (conv_of detector_of_string) Codegen.Ccured
    & info [ "detector"; "d" ] ~doc:"Detector: none, ccured, iwatcher, assertions.")

let mode_arg =
  Arg.(
    value
    & opt (conv_of mode_of_string) Pe_config.Standard
    & info [ "mode"; "m" ] ~doc:"Engine mode: baseline, standard, cmp.")

let bug_arg =
  Arg.(value & opt (some int) None & info [ "bug"; "b" ] ~doc:"Planted bug version.")

let fixing_arg =
  Arg.(value & opt bool true & info [ "fixing" ] ~doc:"Consistency fixing on/off.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Input generator seed.")

let random_arg =
  Arg.(value & flag & info [ "random-input" ] ~doc:"Use a generated input.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print NT-Path termination stats.")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List workloads.")

let disasm_arg =
  Arg.(value & flag & info [ "disasm" ] ~doc:"Print the compiled image's disassembly first.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the run's NT-Path lifecycle events (sim-time flight \
           recorder) and write them as JSONL to $(docv).")

let opt_of_string s =
  match Opt.of_string s with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "unknown optimization level '%s'" s)

let opt_arg =
  Arg.(
    value
    & opt (conv_of opt_of_string) Opt.O0
    & info [ "opt"; "O" ] ~docv:"LEVEL"
        ~doc:"Optimization level: O0 (default, reference emission), O1, O2.")

let dump_pass_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-pass" ] ~docv:"NAME"
        ~doc:
          "Print the intermediate representation after the named pipeline \
           pass (desugar, uniquify, fold-const, dce, remove-unused-defs, \
           regalloc, instr-select, jump-opt, lower), then run as usual.")

let obs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs" ] ~docv:"FILE"
        ~doc:
          "Write the run's Coverage Observatory snapshot (frontier \
           attribution, prime-path coverage, tier occupancy) as one JSON \
           object to $(docv).")

let prometheus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prometheus" ] ~docv:"FILE"
        ~doc:
          "Write the run's telemetry in the Prometheus text exposition \
           format to $(docv).")

let trace_chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-chrome" ] ~docv:"FILE"
        ~doc:
          "Like $(b,--trace) but in Chrome trace-event format (load in \
           Perfetto or chrome://tracing).")

let main list app detector mode bug fixing seed random_input stats
    disasm trace trace_chrome opt dump_pass obs prometheus =
  if list then list_apps ()
  else
    let spec =
      {
        Run_spec.default with
        opt;
        trace = trace <> None || trace_chrome <> None;
        obs = obs <> None;
      }
    in
    run_one ~spec ~app ~detector ~mode ~bug ~fixing ~seed ~random_input
      ~stats ~disasm ~trace ~trace_chrome ~dump_pass ~obs ~prometheus

let cmd =
  let doc = "run a workload under a dynamic bug detector with PathExpander" in
  Cmd.v (Cmd.info "pexp" ~doc)
    Term.(
      const main $ list_arg $ app_arg $ detector_arg $ mode_arg $ bug_arg
      $ fixing_arg $ seed_arg $ random_arg $ stats_arg
      $ disasm_arg $ trace_arg $ trace_chrome_arg $ opt_arg $ dump_pass_arg
      $ obs_arg $ prometheus_arg)

let () = exit (Cmd.eval cmd)
