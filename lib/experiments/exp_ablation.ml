(* Section 4.2 design-choice ablation — following non-taken edges *inside*
   NT-Paths: the paper's gzip experiment found it enlarges branch coverage
   slightly (~2%) but raises the crash ratio of NT-Paths before 1000
   instructions from ~5% to ~16%, so PathExpander follows only taken edges
   within an NT-Path. *)

let measure ctx (workload : Workload.t) ~follow =
  let config =
    {
      (Workload.pe_config workload) with
      Pe_config.follow_nontaken_in_nt = follow;
      max_nt_path_length = 1000;
    }
  in
  let r = Exp_common.run_app ctx ~config workload in
  let records = r.Exp_common.result.Engine.nt_records in
  let crashes = List.length (List.filter Nt_path.is_crash records) in
  ( Coverage.combined_pct r.Exp_common.result.Engine.coverage,
    Stats.pct ~num:crashes ~den:(max 1 (List.length records)) )

let run ctx =
  Exp_common.heading ctx
    "Ablation (Section 4.2): following non-taken edges inside NT-Paths";
  let rows =
    Exp_common.par_map ctx
      (fun (workload : Workload.t) ->
        let cov_off, crash_off = measure ctx workload ~follow:false in
        let cov_on, crash_on = measure ctx workload ~follow:true in
        [
          workload.Workload.name;
          Table.fpct cov_off;
          Table.fpct cov_on;
          Table.fpct crash_off;
          Table.fpct crash_on;
        ])
      [ Registry.gzip; Registry.go; Registry.parser ]
  in
  Exp_common.table ctx
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [
        "Application";
        "coverage (taken-only)";
        "coverage (forced)";
        "crash ratio (taken-only)";
        "crash ratio (forced)";
      ]
    rows;
  Exp_common.printf ctx "%s\n"
    "(forcing cold edges inside NT-Paths buys little coverage but multiplies\n\
     the crash ratio — the reason the design follows only taken edges)"
