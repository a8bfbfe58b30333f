(* Section 7.6 (reconstructed) — effects of the PathExpander parameters:
   MaxNTPathLength, NTPathCounterThreshold and MaxNumNTPaths. The threshold
   sweep also demonstrates recovery of bc's hot-entry-edge bug once the
   threshold exceeds the edge's early exercise count.

   Every sweep fans its workload×config grid through [Exp_common.par_map]
   (one independent Machine.t per cell) and reassembles rows afterwards, so
   --jobs N runs the grid in parallel with byte-identical output. *)

let sweep_apps () = [ Registry.gzip; Registry.print_tokens; Registry.bc ]

let coverage_and_overhead ctx (workload : Workload.t) config =
  let baseline =
    Exp_common.run_app ctx ~mode:Pe_config.Baseline workload
  in
  let pe = Exp_common.run_app ctx ~config workload in
  ( Coverage.combined_pct pe.Exp_common.result.Engine.coverage,
    Exp_common.overhead_pct
      ~baseline:baseline.Exp_common.result.Engine.total_cycles
      ~with_pe:pe.Exp_common.result.Engine.total_cycles,
    pe.Exp_common.result.Engine.spawns )

(* app-major cartesian grid, and its inverse: split the flat result list
   back into one chunk per app *)
let grid apps params =
  List.concat_map (fun w -> List.map (fun p -> (w, p)) params) apps

let rec chunk n xs =
  if xs = [] then []
  else begin
    let rec take k = function
      | x :: rest when k > 0 ->
        let hd, tl = take (k - 1) rest in
        (x :: hd, tl)
      | rest -> ([], rest)
    in
    let hd, tl = take n xs in
    hd :: chunk n tl
  end

let sweep_max_length ctx =
  Exp_common.printf ctx
    "\n-- MaxNTPathLength sweep (standard configuration) --\n";
  let lengths = [ 100; 300; 1000; 3000 ] in
  let apps = sweep_apps () in
  let cells =
    Exp_common.par_map ctx
      (fun ((workload : Workload.t), len) ->
        let config =
          {
            (Workload.pe_config workload) with
            Pe_config.max_nt_path_length = len;
          }
        in
        let cov, ovh, _ = coverage_and_overhead ctx workload config in
        [ Table.fpct cov; Table.fpct ovh ])
      (grid apps lengths)
  in
  let rows =
    List.map2
      (fun (workload : Workload.t) row_cells ->
        workload.Workload.name :: List.concat row_cells)
      apps
      (chunk (List.length lengths) cells)
  in
  Exp_common.table ctx
    ~header:
      ("app (cov / overhead)"
      :: List.concat_map
           (fun l -> [ Printf.sprintf "%d cov" l; Printf.sprintf "%d ovh" l ])
           lengths)
    rows

let sweep_threshold ctx =
  Exp_common.printf ctx
    "\n-- NTPathCounterThreshold sweep (coverage; bc hot-edge bug recovery) --\n";
  let thresholds = [ 1; 2; 5; 8; 16 ] in
  let apps = sweep_apps () in
  let cells =
    Exp_common.par_map ctx
      (fun ((workload : Workload.t), t) ->
        let config =
          {
            (Workload.pe_config workload) with
            Pe_config.nt_counter_threshold = t;
          }
        in
        let cov, _, _ = coverage_and_overhead ctx workload config in
        Table.fpct cov)
      (grid apps thresholds)
  in
  let rows =
    List.map2
      (fun (workload : Workload.t) row -> workload.Workload.name :: row)
      apps
      (chunk (List.length thresholds) cells)
  in
  Exp_common.table ctx
    ~header:("coverage" :: List.map string_of_int thresholds)
    rows;
  (* the bc hot-entry-edge bug (v2) versus the threshold *)
  let bug = Workload.find_bug Registry.bc 2 in
  let detect t =
    let config =
      {
        (Workload.pe_config Registry.bc) with
        Pe_config.nt_counter_threshold = t;
      }
    in
    let r =
      Exp_common.run_app ctx ~detector:Codegen.Ccured ~bug:2 ~config Registry.bc
    in
    let analysis =
      Analysis.analyze ~compiled:r.Exp_common.compiled
        ~machine:r.Exp_common.machine ~bug
    in
    Analysis.detected analysis
  in
  let verdicts =
    Exp_common.par_map ctx (fun t -> string_of_bool (detect t)) thresholds
  in
  Exp_common.table ctx
    ~header:("bc hot-edge bug detected" :: List.map string_of_int thresholds)
    [ "detected" :: verdicts ]

let sweep_max_paths ctx =
  Exp_common.printf ctx "\n-- MaxNumNTPaths sweep (CMP option) --\n";
  let limits = [ 1; 4; 8; 32 ] in
  let apps = sweep_apps () in
  let cells =
    Exp_common.par_map ctx
      (fun ((workload : Workload.t), limit) ->
        let baseline =
          Exp_common.run_app ctx ~mode:Pe_config.Baseline workload
        in
        let config =
          {
            (Workload.pe_config ~mode:Pe_config.Cmp workload) with
            Pe_config.max_num_nt_paths = limit;
          }
        in
        let pe = Exp_common.run_app ctx ~config workload in
        [
          Table.fpct
            (Exp_common.overhead_pct
               ~baseline:baseline.Exp_common.result.Engine.total_cycles
               ~with_pe:pe.Exp_common.result.Engine.total_cycles);
          string_of_int pe.Exp_common.result.Engine.skipped_spawns;
        ])
      (grid apps limits)
  in
  let rows =
    List.map2
      (fun (workload : Workload.t) row_cells ->
        workload.Workload.name :: List.concat row_cells)
      apps
      (chunk (List.length limits) cells)
  in
  Exp_common.table ctx
    ~header:
      ("app (overhead / skipped)"
      :: List.concat_map
           (fun l -> [ Printf.sprintf "%d ovh" l; Printf.sprintf "%d skip" l ])
           limits)
    rows

let run ctx =
  Exp_common.heading ctx "Parameter study (Section 7.6)";
  sweep_max_length ctx;
  sweep_threshold ctx;
  sweep_max_paths ctx
