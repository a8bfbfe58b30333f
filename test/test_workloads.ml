(* Workload integration tests: every application compiles and runs cleanly
   under every detector, and every planted bug behaves exactly as its
   metadata claims — undetected by the baseline on the default input,
   detected (or missed, for the engineered Section 7.1 categories) by
   PathExpander. This is Table 4 as a test suite. *)

let run_bug (workload : Workload.t) (bug : Bug.t) detector mode =
  let compiled = Workload.compile ~detector ~bug:bug.Bug.version workload in
  let machine =
    Machine.create ~input:workload.Workload.default_input compiled.Compile.program
  in
  let config = Workload.pe_config ~mode workload in
  let result = Engine.run ~config machine in
  (match result.Engine.outcome with
   | `Halted | `Exited _ -> ()
   | outcome ->
     Alcotest.failf "%s v%d: bad outcome %s" workload.Workload.name
       bug.Bug.version (Engine.outcome_name outcome));
  Analysis.detected (Analysis.analyze ~compiled ~machine ~bug)

let bug_case (workload : Workload.t) (bug : Bug.t) detector =
  let name =
    Printf.sprintf "%s v%d / %s" workload.Workload.name bug.Bug.version
      (Codegen.detector_name detector)
  in
  Alcotest.test_case name `Quick (fun () ->
      let baseline = run_bug workload bug detector Pe_config.Baseline in
      let pe = run_bug workload bug detector Pe_config.Standard in
      Alcotest.(check bool) (name ^ ": baseline misses it") false baseline;
      Alcotest.(check bool)
        (name ^ ": PathExpander outcome matches the engineered category")
        (bug.Bug.expected_miss = None)
        pe)

let all_bug_cases () =
  List.concat_map
    (fun (workload : Workload.t) ->
      List.concat_map
        (fun (bug : Bug.t) ->
          List.map
            (bug_case workload bug)
            (match bug.Bug.kind with
             | Bug.Memory -> [ Codegen.Ccured; Codegen.Iwatcher ]
             | Bug.Semantic -> [ Codegen.Assertions ]))
        workload.Workload.bugs)
    Registry.buggy_apps

let clean_run_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " clean run") `Quick (fun () ->
      List.iter
        (fun detector ->
          let compiled = Workload.compile ~detector workload in
          let machine =
            Machine.create ~input:workload.Workload.default_input
              compiled.Compile.program
          in
          let result = Engine.run ~config:Pe_config.baseline machine in
          (match result.Engine.outcome with
           | `Halted | `Exited 0 -> ()
           | outcome ->
             Alcotest.failf "%s/%s: %s" workload.Workload.name
               (Codegen.detector_name detector)
               (Engine.outcome_name outcome));
          (* the bug-free baseline run must be report-free *)
          Alcotest.(check int)
            (workload.Workload.name ^ " no reports without bugs")
            0
            (Report.count machine.Machine.reports))
        [ Codegen.No_detector; Codegen.Ccured; Codegen.Iwatcher; Codegen.Assertions ])

let generated_inputs_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " generated inputs") `Quick
    (fun () ->
      let rng = Rng.create 99 in
      let compiled = Workload.compile workload in
      for _ = 1 to 5 do
        let input = workload.Workload.gen_input rng in
        let machine = Machine.create ~input compiled.Compile.program in
        let result = Engine.run ~config:Pe_config.baseline machine in
        match result.Engine.outcome with
        | `Halted | `Exited 0 -> ()
        | outcome ->
          Alcotest.failf "%s on generated input: %s" workload.Workload.name
            (Engine.outcome_name outcome)
      done)

let output_deterministic_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " deterministic") `Quick
    (fun () ->
      let compiled = Workload.compile workload in
      let out () =
        let machine =
          Machine.create ~input:workload.Workload.default_input
            compiled.Compile.program
        in
        ignore (Engine.run ~config:Pe_config.baseline machine);
        Machine.output machine
      in
      Alcotest.(check string) "same output twice" (out ()) (out ()))

let pe_preserves_output_case (workload : Workload.t) =
  Alcotest.test_case (workload.Workload.name ^ " PE preserves output") `Quick
    (fun () ->
      let compiled = Workload.compile workload in
      let out mode =
        let machine =
          Machine.create ~input:workload.Workload.default_input
            compiled.Compile.program
        in
        ignore (Engine.run ~config:(Workload.pe_config ~mode workload) machine);
        Machine.output machine
      in
      let baseline = out Pe_config.Baseline in
      Alcotest.(check string) "standard" baseline (out Pe_config.Standard);
      Alcotest.(check string) "cmp" baseline (out Pe_config.Cmp))

let test_registry_shape () =
  Alcotest.(check int) "38 bugs" 38 Registry.total_bugs;
  Alcotest.(check int) "7 buggy apps" 7 (List.length Registry.buggy_apps);
  Alcotest.(check int) "10 apps total" 10 (List.length Registry.all);
  List.iter
    (fun (w : Workload.t) ->
      Alcotest.(check bool)
        (w.Workload.name ^ " has reasonable size")
        true
        (Workload.loc w > 100))
    Registry.all

let test_find () =
  Alcotest.(check string) "find by name" "164.gzip"
    (Registry.find "164.gzip").Workload.name;
  Alcotest.check_raises "unknown" (Invalid_argument "unknown workload 'zzz'")
    (fun () -> ignore (Registry.find "zzz"))

(* The compile memo is a bounded LRU: a duplicate add keeps the first
   value, a hit refreshes recency, and a full table evicts its least
   recently used key. *)
let test_compile_lru () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Lru.create") (fun () ->
      ignore (Lru.create ~capacity:0));
  let memo = Lru.create ~capacity:2 in
  Lru.add memo 1 "one";
  Lru.add memo 2 "two";
  Lru.add memo 1 "dup";
  Alcotest.(check (option string))
    "a duplicate add keeps the first" (Some "one") (Lru.find memo 1);
  (* the hit made 1 most-recently-used, so a third key evicts 2, not 1 *)
  Lru.add memo 3 "three";
  Alcotest.(check int) "evictions counted" 1 (Lru.evictions memo);
  Alcotest.(check int) "bounded" 2 (Lru.length memo);
  Alcotest.(check (option string)) "lru victim gone" None (Lru.find memo 2);
  Alcotest.(check (option string)) "lru survivor still memoized" (Some "one")
    (Lru.find memo 1);
  let w = Registry.print_tokens2 in
  Alcotest.(check bool) "hit returns the memoized instance" true
    (Workload.compile ~bug:1 w == Workload.compile ~bug:1 w)

let tests =
  Alcotest.test_case "registry shape" `Quick test_registry_shape
  :: Alcotest.test_case "registry find" `Quick test_find
  :: Alcotest.test_case "bounded compile memo" `Quick test_compile_lru
  :: (List.map clean_run_case Registry.all
     @ List.map output_deterministic_case Registry.all
     @ List.map pe_preserves_output_case Registry.all
     @ List.map generated_inputs_case Registry.all
     @ all_bug_cases ())
