(* Experiment registry: every table and figure of the evaluation, by id. *)

type experiment = {
  id : string;
  title : string;
  run : Exp_common.ctx -> unit;
}

let all =
  [
    { id = "fig1"; title = "Figure 1 motivating bug"; run = Exp_fig1.run };
    { id = "fig3"; title = "Crash/Unsafe-latency CDFs"; run = Exp_fig3.run };
    { id = "tab2"; title = "Simulated architecture parameters"; run = Exp_tab2.run };
    { id = "tab3"; title = "Applications and bugs"; run = Exp_tab3.run };
    { id = "tab4"; title = "Bug detection results"; run = Exp_tab4.run };
    { id = "tab5"; title = "Consistency-fixing effects"; run = Exp_tab5.run };
    { id = "cov1"; title = "Single-input branch coverage"; run = Exp_coverage.run };
    {
      id = "cov2";
      title = "Cumulative coverage over 50 inputs";
      run = (fun ctx -> Exp_cumulative.run ctx);
    };
    { id = "ovh1"; title = "Standard vs CMP overhead"; run = Exp_overhead.run };
    { id = "ovh2"; title = "Hardware vs software overhead"; run = Exp_sw_hw.run };
    { id = "par1"; title = "Parameter sensitivity"; run = Exp_params.run };
    { id = "abl1"; title = "NT-Path edge-following ablation"; run = Exp_ablation.run };
    {
      id = "ext1";
      title = "Future-work extensions (OS syscall sandboxing, random selection)";
      run = Exp_extensions.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

type artifacts = {
  stdout : string;
  traces : (string * string) list;
  obs : (string * string) list;
  telemetry : Telemetry.t list;
}

(* The artifact lists are sorted (label, content): runs fanned out inside a
   leg finish in nondeterministic order, and the canonical order keeps the
   returned artifacts independent of it. *)
let capture spec e =
  let buf = Buffer.create 4096 in
  let ctx = Exp_common.context ~spec ~out:(Buffer.add_string buf) in
  e.run ctx;
  let traces, obs, telemetry = Exp_common.collected ctx in
  {
    stdout = Buffer.contents buf;
    traces = List.sort compare traces;
    obs = List.sort compare obs;
    telemetry;
  }

(* Legs fan across [spec.jobs] domains (nested fan-out inside a leg then
   degrades to serial in the pool's workers, so the domain count stays
   bounded); every leg's stdout is printed in list (presentation) order, so
   the bytes are the same at any [--jobs]. *)
let run_list ?(out = print_string) spec experiments =
  let results = Pool.map ~jobs:spec.Run_spec.jobs (capture spec) experiments in
  List.iter (fun a -> out a.stdout) results;
  results
