(* Section 7.3 (reconstructed) — single-input branch coverage: the baseline
   monitored run versus PathExpander, per application. The paper reports an
   average improvement from 40% to 65%. *)

let measure ctx (workload : Workload.t) =
  let r = Exp_common.run_app ctx workload in
  let cov = r.Exp_common.result.Engine.coverage in
  ( Coverage.taken_pct cov,
    Coverage.combined_pct cov,
    Coverage.stmt_taken_pct cov,
    Coverage.stmt_combined_pct cov )

let run ctx =
  Exp_common.heading ctx
    "Coverage (Section 7.3): branch and statement coverage of a single run";
  let rows =
    Exp_common.par_map ctx
      (fun (workload : Workload.t) ->
        let base, pe, sbase, spe = measure ctx workload in
        ( [
            workload.Workload.name;
            Table.fpct base;
            Table.fpct pe;
            Table.fpct (pe -. base);
            Table.fpct sbase;
            Table.fpct spe;
          ],
          (base, pe, sbase, spe) ))
      Registry.perf_apps
  in
  let avg f = Stats.mean (List.map (fun (_, t) -> f t) rows) in
  let b = avg (fun (b, _, _, _) -> b)
  and p = avg (fun (_, p, _, _) -> p)
  and sb = avg (fun (_, _, sb, _) -> sb)
  and sp = avg (fun (_, _, _, sp) -> sp) in
  Exp_common.table ctx
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [
        "Application";
        "br base";
        "br PE";
        "br gain";
        "stmt base";
        "stmt PE";
      ]
    (List.map fst rows
    @ [
        [
          "Average";
          Table.fpct b;
          Table.fpct p;
          Table.fpct (p -. b);
          Table.fpct sb;
          Table.fpct sp;
        ];
      ])
