(* Extensions: the paper's future work, implemented and measured.

   ext1 — OS support for sandboxing unsafe events (Section 3.2: "if we had
   an OS support to sandbox unsafe events, more than 90% of NT-Paths may
   potentially execute up to 1000 instructions ... remains as our future
   work"). With [sandbox_syscalls] the NT-Path runner virtualises I/O:
   output is discarded with the rest of the sandbox and [getc] reads ahead
   on a path-local cursor. We re-run the Figure 3 study and check the
   paper's >90% prediction.

   ext2 — a random factor in NT-Path selection (Section 7.1: the
   hot-entry-edge bc bug "can be addressed by adding random factor into
   PathExpander's NT-Path selection"). With [random_spawn_chance] a
   saturated edge still spawns occasionally; we measure whether the bc bug
   is recovered and what the exploration costs. *)

let survival ctx (workload : Workload.t) ~sandbox_syscalls =
  let config =
    {
      Pe_config.latency_study with
      Pe_config.max_nt_path_length = 1000;
      counter_reset_interval = 40_000;
      sandbox_syscalls;
    }
  in
  let r = Exp_common.run_app ctx ~fixing:false ~config workload in
  let records = r.Exp_common.result.Engine.nt_records in
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
  Stats.pct ~num:survived ~den:(max 1 (List.length records))

let run_os_support ctx =
  Exp_common.printf ctx
    "\n-- ext1: OS support for unsafe events (Section 3.2 future work) --\n";
  let rows =
    Exp_common.par_map ctx
      (fun (workload : Workload.t) ->
        let without = survival ctx workload ~sandbox_syscalls:false in
        let with_os = survival ctx workload ~sandbox_syscalls:true in
        [
          workload.Workload.name;
          Table.fpct without;
          Table.fpct with_os;
        ])
      Registry.latency_apps
  in
  Exp_common.table ctx
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    ~header:
      [ "Application"; "survive 1000 insns"; "with sandboxed syscalls" ]
    rows;
  Exp_common.printf ctx "%s\n"
    "(the paper predicted that with OS support 'more than 90% of NT-Paths\n\
     may potentially execute up to 1000 instructions')"

let bc_bug_detected ctx config =
  let bug = Workload.find_bug Registry.bc 2 in
  let r =
    Exp_common.run_app ctx ~detector:Codegen.Ccured ~bug:2 ~config Registry.bc
  in
  let analysis =
    Analysis.analyze ~compiled:r.Exp_common.compiled ~machine:r.Exp_common.machine
      ~bug
  in
  (Analysis.detected analysis, r.Exp_common.result.Engine.spawns)

let run_random_selection ctx =
  Exp_common.printf ctx
    "\n-- ext2: random factor in NT-Path selection (Section 7.1 suggestion) --\n";
  let chances = [ 0.0; 0.01; 0.05; 0.2 ] in
  let rows =
    Exp_common.par_map ctx
      (fun chance ->
        let config =
          {
            (Workload.pe_config Registry.bc) with
            Pe_config.random_spawn_chance = chance;
          }
        in
        let detected, spawns = bc_bug_detected ctx config in
        [
          Printf.sprintf "%.3f" chance;
          string_of_bool detected;
          string_of_int spawns;
        ])
      chances
  in
  Exp_common.table ctx
    ~aligns:[ Table.Right; Table.Left; Table.Right ]
    ~header:[ "random chance"; "bc hot-edge bug detected"; "NT-Paths" ]
    rows;
  Exp_common.printf ctx "%s\n"
    "(at threshold 5 the bug's entry edge is saturated and never spawned;\n\
     a small random factor re-explores hot edges and recovers the bug)"

(* ext3 — an assertion-free detector on top of PathExpander: the paper's
   generality claim says any dynamic checker benefits. We train a
   DIDUCE-style invariant monitor on a baseline run, then let PathExpander
   force the cold paths; planted bugs that smash global state outside its
   trained range surface with no assertions in the program at all.
   Violations that the bug-free binary also produces under PathExpander
   (forced-path anomalies) are subtracted as the detector's own noise. *)

let diduce_names ctx (workload : Workload.t) ~bug ~mode =
  let compiled = Exp_common.compile ctx ?bug workload in
  let train = Diduce.create compiled.Compile.program in
  let run config =
    let machine =
      Exp_common.machine ctx ~input:workload.Workload.default_input
        compiled.Compile.program
    in
    Diduce.attach train machine;
    ignore (Exp_common.engine ctx ~config machine)
  in
  run Pe_config.baseline;
  Diduce.start_monitoring train;
  run (Workload.pe_config ~mode workload);
  List.sort_uniq compare
    (List.map
       (fun v -> (v.Diduce.addr, v.Diduce.surprise))
       (Diduce.nt_path_violations train))

let run_diduce ctx =
  Exp_common.printf ctx
    "\n-- ext3: an assertion-free invariant detector (DIDUCE-style) --\n";
  let apps = [ Registry.schedule; Registry.schedule2; Registry.print_tokens2 ] in
  let rows =
    Exp_common.par_map ctx
      (fun (workload : Workload.t) ->
        let noise =
          diduce_names ctx workload ~bug:None ~mode:Pe_config.Standard
        in
        let semantic =
          List.filter (fun b -> b.Bug.kind = Bug.Semantic) workload.Workload.bugs
        in
        (* a bug registers when some violation is strictly more surprising
           than anything the bug-free binary produced at that address *)
        let exceeds noise (addr, surprise) =
          not
            (List.exists
               (fun (naddr, nsurprise) -> naddr = addr && nsurprise >= surprise)
               noise)
        in
        let caught =
          List.filter
            (fun (bug : Bug.t) ->
              let hits =
                diduce_names ctx workload ~bug:(Some bug.Bug.version)
                  ~mode:Pe_config.Standard
              in
              List.exists (exceeds noise) hits)
            semantic
        in
        let baseline_caught =
          List.filter
            (fun (bug : Bug.t) ->
              diduce_names ctx workload ~bug:(Some bug.Bug.version)
                ~mode:Pe_config.Baseline
              <> [])
            semantic
        in
        [
          workload.Workload.name;
          string_of_int (List.length semantic);
          string_of_int (List.length baseline_caught);
          string_of_int (List.length caught);
          String.concat " "
            (List.map (fun b -> Printf.sprintf "v%d" b.Bug.version) caught);
        ])
      apps
  in
  Exp_common.table ctx
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
    ~header:
      [ "Application"; "semantic bugs"; "baseline"; "DIDUCE+PE"; "which" ]
    rows;
  Exp_common.printf ctx "%s\n"
    "(no assertions compiled in: the invariant monitor alone, fed non-taken\n\
     paths by PathExpander, exposes the state-smashing bugs)"

(* ext4 — profile-guided consistency fixing (Section 4.4 future work:
   "rely on static analysis and value-invariants inference to pick a value
   satisfying not only the desired branch direction but also the normal
   value range and usage pattern of this variable"). The engine observes
   each fixable condition variable at branch time and fixes with an observed
   value satisfying the forced edge when one exists, falling back to the
   boundary stub otherwise. *)

let fixing_quality ctx (workload : Workload.t) ~profiled =
  let bugs = Exp_common.bugs_for workload Codegen.Ccured in
  let per_bug =
    List.map
      (fun (bug : Bug.t) ->
        let config =
          {
            (Workload.pe_config workload) with
            Pe_config.profiled_fixing = profiled;
          }
        in
        let r =
          Exp_common.run_app ctx ~detector:Codegen.Ccured ~bug:bug.Bug.version
            ~config workload
        in
        let analysis =
          Analysis.analyze ~compiled:r.Exp_common.compiled
            ~machine:r.Exp_common.machine ~bug
        in
        let records = r.Exp_common.result.Engine.nt_records in
        let crashes = List.length (List.filter Nt_path.is_crash records) in
        ( Analysis.false_positive_count analysis,
          (if Analysis.detected analysis then 1 else 0),
          Stats.pct ~num:crashes ~den:(max 1 (List.length records)),
          r.Exp_common.result.Engine.profiled_overrides ))
      bugs
  in
  let fps = Stats.mean_int (List.map (fun (f, _, _, _) -> f) per_bug) in
  let detected =
    List.fold_left ( + ) 0 (List.map (fun (_, d, _, _) -> d) per_bug)
  in
  let crash = Stats.mean (List.map (fun (_, _, c, _) -> c) per_bug) in
  let overrides =
    List.fold_left ( + ) 0 (List.map (fun (_, _, _, o) -> o) per_bug)
  in
  (fps, detected, crash, overrides)

let run_profiled_fixing ctx =
  Exp_common.printf ctx
    "\n-- ext4: profile-guided consistency fixing (Section 4.4 future work) --\n";
  let apps = [ Registry.go; Registry.bc; Registry.man; Registry.print_tokens2 ] in
  let rows =
    Exp_common.par_map ctx
      (fun (workload : Workload.t) ->
        let b_fp, b_det, b_crash, _ =
          fixing_quality ctx workload ~profiled:false
        in
        let p_fp, p_det, p_crash, used =
          fixing_quality ctx workload ~profiled:true
        in
        [
          workload.Workload.name;
          Table.f1 b_fp;
          Table.f1 p_fp;
          string_of_int b_det;
          string_of_int p_det;
          Table.fpct b_crash;
          Table.fpct p_crash;
          string_of_int used;
        ])
      apps
  in
  Exp_common.table ctx
    ~aligns:
      [
        Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right; Table.Right;
      ]
    ~header:
      [
        "Application";
        "FP (boundary)";
        "FP (profiled)";
        "det (boundary)";
        "det (profiled)";
        "crash (boundary)";
        "crash (profiled)";
        "overrides used";
      ]
    rows;
  Exp_common.printf ctx "%s\n"
    "(profiled values come from each variable's observed history; detection\n\
     is unchanged and NT-Path crash behaviour stays comparable -- the deeper\n\
     inconsistency misses need the symbolic fixing the paper defers)"

let run ctx =
  Exp_common.heading ctx "Extensions: the paper's future work, implemented";
  run_os_support ctx;
  run_random_selection ctx;
  run_diduce ctx;
  run_profiled_fixing ctx
