(* Table 4 — bug detection results of PathExpander: for every detection tool
   and buggy application, how many of the tested bugs the baseline monitored
   run exposes (none — the inputs are non-bug-triggering) and how many
   PathExpander exposes. *)

type row = {
  app : string;
  tested : int;
  baseline_detected : int;
  pe_detected : int;
}

let evaluate_bug ctx (workload : Workload.t) detector (bug : Bug.t) =
  let test mode =
    let r =
      Exp_common.run_app ctx ~detector ~bug:bug.Bug.version ~mode workload
    in
    let analysis =
      Analysis.analyze ~compiled:r.Exp_common.compiled
        ~machine:r.Exp_common.machine ~bug
    in
    Analysis.detected analysis
  in
  (test Pe_config.Baseline, test Pe_config.Standard)

let app_row ctx detector (workload : Workload.t) =
  let bugs = Exp_common.bugs_for workload detector in
  (* per-bug fan-out: every (bug, mode) verdict is an independent pair of
     compile+run jobs *)
  let results =
    Exp_common.par_map ctx (evaluate_bug ctx workload detector) bugs
  in
  {
    app = workload.Workload.name;
    tested = List.length bugs;
    baseline_detected = List.length (List.filter fst results);
    pe_detected = List.length (List.filter snd results);
  }

let memory_apps () =
  List.filter
    (fun (w : Workload.t) ->
      List.exists (fun b -> b.Bug.kind = Bug.Memory) w.Workload.bugs)
    Registry.buggy_apps

let semantic_apps () =
  List.filter
    (fun (w : Workload.t) ->
      List.exists (fun b -> b.Bug.kind = Bug.Semantic) w.Workload.bugs)
    Registry.buggy_apps

let rows_for ctx detector apps =
  List.map
    (fun w ->
      let row = app_row ctx detector w in
      [
        Exp_common.detector_label detector;
        row.app;
        string_of_int row.tested;
        string_of_int row.baseline_detected;
        string_of_int row.pe_detected;
      ])
    apps

(* Unique-bug totals (memory bugs are tested by both CCured and iWatcher but
   counted once, as in the paper's "21 of 38"). *)
let unique_totals ctx =
  let count_for detector apps =
    List.fold_left
      (fun (tested, base, pe) w ->
        let row = app_row ctx detector w in
        (tested + row.tested, base + row.baseline_detected, pe + row.pe_detected))
      (0, 0, 0) apps
  in
  let mem = count_for Codegen.Ccured (memory_apps ()) in
  let sem = count_for Codegen.Assertions (semantic_apps ()) in
  let (a, b, c), (d, e, f) = (mem, sem) in
  (a + d, b + e, c + f)

let run ctx =
  Exp_common.heading ctx
    "Table 4: Bug detection results (non-bug-triggering inputs)";
  let rows =
    rows_for ctx Codegen.Ccured (memory_apps ())
    @ rows_for ctx Codegen.Iwatcher (memory_apps ())
    @ rows_for ctx Codegen.Assertions (semantic_apps ())
  in
  Exp_common.table ctx
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:
      [ "Dynamic Tool"; "Application"; "#Bug Tested"; "Baseline"; "PathExpander" ]
    rows;
  let tested, base, pe = unique_totals ctx in
  Exp_common.printf ctx
    "Distinct bugs: %d tested, %d detected by the baseline, %d detected with\n\
     PathExpander (memory bugs counted once across CCured and iWatcher).\n"
    tested base pe
