(* Section 7.5 (reconstructed) — hardware versus software PathExpander: the
   same NT-Path policy implemented over PIN-style dynamic instrumentation
   pays its costs (dispatch dilation, per-branch analysis, checkpointing,
   restore-log maintenance) on the critical path. The paper reports that the
   hardware design's overhead is 3-4 orders of magnitude lower. *)

let measure ctx (workload : Workload.t) =
  let hw_baseline =
    (Exp_common.run_app ctx ~mode:Pe_config.Baseline workload).Exp_common.result
  in
  let hw_cmp =
    (Exp_common.run_app ctx ~mode:Pe_config.Cmp workload).Exp_common.result
  in
  let compiled = Exp_common.compile ctx workload in
  let machine =
    Exp_common.machine ctx ~input:workload.Workload.default_input
      compiled.Compile.program
  in
  let sw = Soft_engine.run ~config:(Workload.pe_config workload) machine in
  let hw_overhead =
    Exp_common.overhead_pct ~baseline:hw_baseline.Engine.total_cycles
      ~with_pe:hw_cmp.Engine.total_cycles
  in
  let sw_overhead = 100.0 *. (sw.Soft_engine.accounting.Pin_model.slowdown -. 1.0) in
  (hw_overhead, sw_overhead)

let run ctx =
  Exp_common.heading ctx
    "Hardware vs software PathExpander (Section 7.5): overhead comparison";
  let rows =
    Exp_common.par_map ctx
      (fun (workload : Workload.t) ->
        let hw, sw = measure ctx workload in
        let ratio = if hw <= 0.0 then infinity else sw /. hw in
        ( [
            workload.Workload.name;
            Table.fpct hw;
            Printf.sprintf "%.0fx" (sw /. 100.0 +. 1.0);
            Table.fpct sw;
            (if ratio = infinity then "-"
             else Printf.sprintf "%.1f" (log10 ratio));
          ],
          (hw, sw) ))
      Registry.perf_apps
  in
  let hws = List.map (fun (_, (h, _)) -> h) rows in
  let sws = List.map (fun (_, (_, s)) -> s) rows in
  Exp_common.table ctx
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [
        "Application";
        "HW (CMP) overhead";
        "SW slowdown";
        "SW overhead";
        "orders of magnitude";
      ]
    (List.map fst rows
    @ [
        [
          "Average";
          Table.fpct (Stats.mean hws);
          "";
          Table.fpct (Stats.mean sws);
          Printf.sprintf "%.1f" (log10 (Stats.mean sws /. Stats.mean hws));
        ];
      ])
