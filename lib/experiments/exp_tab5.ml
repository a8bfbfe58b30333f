(* Table 5 — false positives and bugs detected before and after the key
   variable consistency fix (Section 4.4), for the memory-bug applications
   under CCured and iWatcher. "Before" disables both the predicated fix
   stubs in the binary and the fixing behaviour in the engine; false
   positives count distinct non-bug report sites that fired only inside
   NT-Paths (PathExpander-induced, not the checker's own). *)

type cell = { fp : int; detected : int }

let evaluate ctx (workload : Workload.t) detector ~fixing =
  let bugs = Exp_common.bugs_for workload detector in
  let per_bug =
    List.map
      (fun (bug : Bug.t) ->
        let r =
          Exp_common.run_app ctx ~detector ~fixing ~bug:bug.Bug.version workload
        in
        let analysis =
          Analysis.analyze ~compiled:r.Exp_common.compiled
            ~machine:r.Exp_common.machine ~bug
        in
        ( Analysis.false_positive_count analysis,
          if Analysis.detected analysis then 1 else 0 ))
      bugs
  in
  {
    fp =
      int_of_float
        (Float.round (Stats.mean_int (List.map fst per_bug)));
    detected = List.fold_left ( + ) 0 (List.map snd per_bug);
  }

let run ctx =
  Exp_common.heading ctx
    "Table 5: False-positive pruning by key-variable value fixing";
  let apps = Exp_tab4.memory_apps () in
  let make_rows detector =
    Exp_common.par_map ctx
      (fun (w : Workload.t) ->
        let before = evaluate ctx w detector ~fixing:false in
        let after = evaluate ctx w detector ~fixing:true in
        ( [
            Exp_common.detector_label detector;
            w.Workload.name;
            string_of_int before.fp;
            string_of_int after.fp;
            string_of_int before.detected;
            string_of_int after.detected;
          ],
          (before, after) ))
      apps
  in
  let ccured = make_rows Codegen.Ccured in
  let iwatcher = make_rows Codegen.Iwatcher in
  let all = ccured @ iwatcher in
  let avg f =
    Stats.mean_int (List.map (fun (_, cells) -> f cells) all)
  in
  let rows =
    List.map fst all
    @ [
        [
          "Average";
          "";
          Table.f1 (avg (fun (b, _) -> b.fp));
          Table.f1 (avg (fun (_, a) -> a.fp));
          "";
          "";
        ];
      ]
  in
  Exp_common.table ctx
    ~aligns:
      [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [
        "Detection Method";
        "Application";
        "#FP before";
        "#FP after";
        "#Bug before";
        "#Bug after";
      ]
    rows;
  Exp_common.printf ctx "%s\n"
    "(the man bug is detected only after fixing: without it the forced edge\n\
     dereferences the NULL include pointer and the NT-Path crashes first)"
