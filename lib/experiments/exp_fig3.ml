(* Figure 3 — Crash-Latency and Unsafe-Latency study (Section 3.2): spawn an
   NT-Path at every non-taken branch edge with zero exercise count, with no
   variable fixing, and run each until it crashes, reaches an unsafe event,
   reaches the end of the program, or has executed 1000 instructions. The
   figure plots the cumulative fraction of NT-Paths stopped by a crash or an
   unsafe event before a given instruction count. *)

let points = [ 10; 30; 100; 300; 1000 ]

type stats = {
  total : int;
  crash_latencies : int list;
  unsafe_latencies : int list;
  survived : int;
}

let collect ctx (workload : Workload.t) =
  let config =
    {
      Pe_config.latency_study with
      Pe_config.max_nt_path_length = 1000;
      counter_reset_interval = 40_000;
    }
  in
  let r =
    Exp_common.run_app ctx ~fixing:false ~config workload
  in
  let records = r.Exp_common.result.Engine.nt_records in
  let crash_latencies =
    List.filter_map
      (fun (rec_ : Nt_path.record) ->
        if Nt_path.is_crash rec_ then Some rec_.Nt_path.insns else None)
      records
  in
  let unsafe_latencies =
    List.filter_map
      (fun (rec_ : Nt_path.record) ->
        if Nt_path.is_unsafe rec_ then Some rec_.Nt_path.insns else None)
      records
  in
  let survived =
    List.length
      (List.filter
         (fun (rec_ : Nt_path.record) ->
           match rec_.Nt_path.termination with
           | Nt_path.T_max_length | Nt_path.T_program_end -> true
           | Nt_path.T_crash _ | Nt_path.T_unsafe _ | Nt_path.T_cache_overflow ->
             false)
         records)
  in
  { total = List.length records; crash_latencies; unsafe_latencies; survived }

let series name total latencies =
  let row =
    List.map
      (fun p ->
        let stopped = List.length (List.filter (fun l -> l <= p) latencies) in
        Table.fpct (Stats.pct ~num:stopped ~den:total))
      points
  in
  name :: row

let run ctx =
  Exp_common.heading ctx
    "Figure 3: Crash-Latency and Unsafe-Latency cumulative distributions";
  Exp_common.printf ctx
    "(fraction of NT-Paths stopped by crash / unsafe event before executing\n\
    \ N instructions; NT-Paths spawned on every cold edge, no fixing)\n\n";
  let collected =
    Exp_common.par_map ctx
      (fun (w : Workload.t) -> (w, collect ctx w))
      Registry.latency_apps
  in
  List.iter
    (fun ((workload : Workload.t), stats) ->
      Exp_common.printf ctx "%s: %d NT-Paths, %s survive to 1000 instructions\n"
        workload.Workload.name stats.total
        (Table.fpct (Stats.pct ~num:stats.survived ~den:stats.total));
      Exp_common.table ctx
        ~header:("stopped by <= N insns" :: List.map string_of_int points)
        [
          series "crash" stats.total stats.crash_latencies;
          series "unsafe event" stats.total stats.unsafe_latencies;
        ];
      Exp_common.print ctx "\n")
    collected
