(* Section 7.4 (reconstructed) — execution overhead of PathExpander: the
   standard configuration (NT-Paths serialised on the primary core) versus
   the CMP optimisation (NT-Paths on idle cores). The paper reports less
   than 9.9% overhead with the CMP option. *)

type row = {
  app : string;
  baseline_cycles : int;
  standard_cycles : int;
  cmp_cycles : int;
  spawns : int;
}

let measure ctx ?detector (workload : Workload.t) =
  let cycles mode =
    let r = Exp_common.run_app ctx ?detector ~mode workload in
    (r.Exp_common.result.Engine.total_cycles, r.Exp_common.result.Engine.spawns)
  in
  let baseline_cycles, _ = cycles Pe_config.Baseline in
  let standard_cycles, spawns = cycles Pe_config.Standard in
  let cmp_cycles, _ = cycles Pe_config.Cmp in
  { app = workload.Workload.name; baseline_cycles; standard_cycles; cmp_cycles; spawns }

(* one pool worker per application; each measures its three modes on
   machines it owns *)
let rows ctx ?detector apps =
  Exp_common.par_map ctx
    (fun w ->
      let m = measure ctx ?detector w in
      let std = Exp_common.overhead_pct ~baseline:m.baseline_cycles ~with_pe:m.standard_cycles in
      let cmp = Exp_common.overhead_pct ~baseline:m.baseline_cycles ~with_pe:m.cmp_cycles in
      ( [
          m.app;
          string_of_int m.baseline_cycles;
          string_of_int m.spawns;
          Table.fpct std;
          Table.fpct cmp;
        ],
        (std, cmp) ))
    apps

let run ctx =
  Exp_common.heading ctx
    "Overhead (Section 7.4): PathExpander standard configuration vs CMP option";
  let all = rows ctx Registry.perf_apps in
  let stds = List.map (fun (_, (s, _)) -> s) all in
  let cmps = List.map (fun (_, (_, c)) -> c) all in
  Exp_common.table ctx
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Application"; "Baseline cycles"; "NT-Paths"; "Standard"; "CMP" ]
    (List.map fst all
    @ [
        [
          "Average";
          "";
          "";
          Table.fpct (Stats.mean stds);
          Table.fpct (Stats.mean cmps);
        ];
      ])
