(* Figure 1 — the motivating example: print_tokens2 v10's buffer overrun is
   invisible to the baseline monitored run on a general input and caught by
   PathExpander on the forced non-taken path. *)

let run ctx =
  Exp_common.heading ctx
    "Figure 1: print_tokens2 v10 (unterminated string constant overrun)";
  let workload = Registry.print_tokens2 in
  let bug = Workload.find_bug workload 10 in
  let show detector mode =
    let r = Exp_common.run_app ctx ~detector ~bug:10 ~mode workload in
    let analysis =
      Analysis.analyze ~compiled:r.Exp_common.compiled
        ~machine:r.Exp_common.machine ~bug
    in
    Exp_common.printf ctx
      "%-24s %-9s detected=%-5b coverage=%5.1f%% reports=%d\n"
      (Exp_common.detector_label detector)
      (Pe_config.mode_name mode)
      (Analysis.detected analysis)
      (if mode = Pe_config.Baseline then
         Coverage.taken_pct r.Exp_common.result.Engine.coverage
       else Coverage.combined_pct r.Exp_common.result.Engine.coverage)
      (Report.count r.Exp_common.machine.Machine.reports)
  in
  List.iter
    (fun detector ->
      show detector Pe_config.Baseline;
      show detector Pe_config.Standard)
    [ Codegen.Ccured; Codegen.Iwatcher ];
  Exp_common.printf ctx "%s\n"
    "The buggy path needs a token that starts with a quotation mark and has\n\
     no second quotation mark; the general input contains none, so only the\n\
     forced NT-Path exposes the overrun to the dynamic checkers."
