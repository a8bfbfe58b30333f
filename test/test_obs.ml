(* Coverage Observatory tests: prime-path enumeration (directed units on
   textbook graphs with hand-checked counts, plus QCheck properties over
   random graphs), frontier attribution, observatory JSON, Prometheus
   exposition, and telemetry snapshot isolation. DESIGN.md §15. *)

let path_strings (paths : Cfg.paths) =
  Array.to_list paths.Cfg.all
  |> List.map (fun p ->
         String.concat "-"
           (Array.to_list (Array.map string_of_int p.Cfg.nodes)))
  |> List.sort compare

(* Diamond: 0 -> {1,2}, 1 -> 3, 2 -> 3. Prime paths: 0-1-3, 0-2-3. *)
let test_prime_diamond () =
  let cfg = Cfg.of_succs [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check int) "truncated" 0 paths.Cfg.truncated;
  Alcotest.(check (list string))
    "prime paths"
    [ "0-1-3"; "0-2-3" ]
    (path_strings paths)

(* While loop: 0 -> 1; 1 -> {2,3}; 2 -> 1. Prime paths (Ammann–Offutt):
   0-1-2, 0-1-3, 2-1-3, 1-2-1, 2-1-2. *)
let test_prime_while () =
  let cfg = Cfg.of_succs [| [ 1 ]; [ 2; 3 ]; [ 1 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check int) "truncated" 0 paths.Cfg.truncated;
  Alcotest.(check (list string))
    "prime paths"
    [ "0-1-2"; "0-1-3"; "1-2-1"; "2-1-2"; "2-1-3" ]
    (path_strings paths)

(* Nested loop:
     0 -> 1            entry
     1 -> {2,5}        outer header
     2 -> {3,4}        inner header
     3 -> 2            inner latch
     4 -> 1            outer latch
     5: exit
   Hand enumeration of maximal simple paths and simple cycles:
     dead-ends: 0-1-2-3 (3 -> 2 revisits), 0-1-2-4 is extendable to
       0-1-2-4 -> 1? revisits 1... so 0-1-2-4 dead-ends too; 0-1-5;
       0-1-2-3 and 0-1-2-4 and 3-2-4-1-5? start from 3: 3-2-4-1-5.
     cycles: 1-2-4-1, 2-4-1-2, 4-1-2-4, 2-3-2, 3-2-3, and rotations of the
       inner loop through the outer: 1-2-3? 3 -> 2 not 1, so no.
     other maximal simple paths: 3-2-4-1-5, 4-1-2-3, 0-1-2-3, 0-1-2-4,
       0-1-5, 3-2-4-1-5.
   Full set (9): 0-1-2-3, 0-1-2-4, 0-1-5, 1-2-4-1, 2-3-2, 2-4-1-2, 3-2-3,
     3-2-4-1-5, 4-1-2-3, 4-1-2-4.  That is 10 — verified below against the
     enumerator plus the subpath filter by hand:
     - 0-1-2-3: simple, 3's only succ 2 is visited -> maximal. prime.
     - 0-1-2-4: 4's succ 1 visited -> maximal. prime? contained in no other
       (paths through 0 must start at 0; 0-1-2-4 extended by 1 impossible).
     - 0-1-5: 5 exit -> maximal; not a subpath of anything longer (any
       superpath must prepend before 0: none). prime.
     - 4-1-2-3: simple, 3's succ 2 visited -> maximal; not a subpath (no
       edge into 4 except 2, and 2 already inside). Wait: 2 -> 4 exists, but
       2 is in the path, so no simple superpath. prime.
     - 3-2-4-1-5: maximal (5 exit); superpath would prepend 2 before 3 but
       2 is inside. prime.
     - cycles: 1-2-4-1, 2-4-1-2, 4-1-2-4 (outer, 3 rotations), 2-3-2,
       3-2-3 (inner, 2 rotations). All prime by definition.
   Total: 5 simple-path primes + 5 cycle primes = 10. *)
let test_prime_nested () =
  let cfg = Cfg.of_succs [| [ 1 ]; [ 2; 5 ]; [ 3; 4 ]; [ 2 ]; [ 1 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check int) "truncated" 0 paths.Cfg.truncated;
  Alcotest.(check (list string))
    "prime paths"
    [
      "0-1-2-3";
      "0-1-2-4";
      "0-1-5";
      "1-2-4-1";
      "2-3-2";
      "2-4-1-2";
      "3-2-3";
      "3-2-4-1-5";
      "4-1-2-3";
      "4-1-2-4";
    ]
    (path_strings paths)

(* Straight line: one prime path, the whole chain. *)
let test_prime_chain () =
  let cfg = Cfg.of_succs [| [ 1 ]; [ 2 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check (list string)) "prime paths" [ "0-1-2" ] (path_strings paths)

(* Self loop: 0 -> {0,1}. Primes: 0-0 (the self cycle) and 0-1. *)
let test_prime_self_loop () =
  let cfg = Cfg.of_succs [| [ 0; 1 ]; [] |] in
  let paths = Cfg.enumerate cfg in
  Alcotest.(check (list string))
    "prime paths" [ "0-0"; "0-1" ] (path_strings paths)

(* Truncation is reported, never silent: a dense graph under a tiny budget
   must set [truncated] > 0. *)
let test_prime_truncation () =
  let n = 9 in
  let succs =
    Array.init n (fun i -> List.filter (fun j -> j <> i) (List.init n Fun.id))
  in
  let cfg = Cfg.of_succs succs in
  let paths = Cfg.enumerate ~max_paths:50 cfg in
  Alcotest.(check bool) "truncated > 0" true (paths.Cfg.truncated > 0)

(* QCheck: prime paths of a random graph are simple (no repeated interior
   node), pairwise non-subpath, and every edge they traverse exists. *)
let gen_graph =
  QCheck.Gen.(
    sized_size (int_range 2 7) (fun n ->
        let* succs =
          array_repeat n
            (list_size (int_range 0 3) (int_range 0 (max 0 (n - 1))))
        in
        return (Array.map (List.sort_uniq compare) succs)))

let arb_graph =
  QCheck.make gen_graph ~print:(fun succs ->
      String.concat ";"
        (Array.to_list
           (Array.map
              (fun l -> String.concat "," (List.map string_of_int l))
              succs)))

let prop_primes_simple =
  QCheck.Test.make ~name:"prime paths are simple and edges exist" ~count:200
    arb_graph (fun succs ->
      let cfg = Cfg.of_succs succs in
      let paths = Cfg.enumerate ~max_paths:2_000 cfg in
      Array.for_all
        (fun (p : Cfg.prime) ->
          let nodes = p.Cfg.nodes in
          let len = Array.length nodes in
          let interior_simple =
            let seen = Hashtbl.create 8 in
            let ok = ref true in
            for i = 0 to len - 1 do
              (* first = last is allowed (cycle); any other repeat is not *)
              if Hashtbl.mem seen nodes.(i) then
                if not (i = len - 1 && nodes.(i) = nodes.(0)) then ok := false;
              Hashtbl.replace seen nodes.(i) ()
            done;
            !ok
          in
          let edges_exist =
            let ok = ref true in
            for i = 0 to len - 2 do
              if not (List.mem nodes.(i + 1) succs.(nodes.(i))) then
                ok := false
            done;
            !ok
          in
          interior_simple && edges_exist)
        paths.Cfg.all)

let prop_primes_maximal =
  QCheck.Test.make ~name:"prime paths are pairwise non-subpath" ~count:100
    arb_graph (fun succs ->
      let cfg = Cfg.of_succs succs in
      let paths = Cfg.enumerate ~max_paths:2_000 cfg in
      QCheck.assume (paths.Cfg.truncated = 0);
      let seqs = Array.map (fun p -> p.Cfg.nodes) paths.Cfg.all in
      let is_subpath sub sup =
        let ls = Array.length sub and lp = Array.length sup in
        ls < lp
        && begin
             let found = ref false in
             for i = 0 to lp - ls do
               let ok = ref true in
               for j = 0 to ls - 1 do
                 if sup.(i + j) <> sub.(j) then ok := false
               done;
               if !ok then found := true
             done;
             !found
           end
      in
      Array.for_all
        (fun a ->
          Array.for_all
            (fun b ->
              (* cycles may not be subpaths either, by primality *)
              not (is_subpath a b))
            seqs)
        seqs)

(* ---- Observatory snapshots ----------------------------------------------- *)

(* One observed run of a registry workload: run with the engine-side
   bookkeeping armed, then snapshot. *)
let observed_snapshot ?(mode = Pe_config.Standard) name =
  let workload = Registry.find name in
  let compiled = Workload.compile workload in
  let machine =
    Machine.create ~input:workload.Workload.default_input
      compiled.Compile.program
  in
  let config = Workload.pe_config ~mode workload in
  let result = Engine.run ~obs:true ~config machine in
  Obs.snapshot
    ~label:(name ^ "/" ^ Pe_config.mode_name mode)
    ~program:compiled.Compile.program ~machine ~result ~config

let json_of snap =
  match Jsonu.parse (Obs.to_json snap) with
  | Ok v -> v
  | Error msg -> Alcotest.failf "snapshot does not parse: %s" msg

let jint v name =
  match Jsonu.member name v with
  | Some (Jsonu.Num n) -> int_of_float n
  | _ -> Alcotest.failf "missing integer member %s" name

let known_cause c =
  List.mem c
    [ "site-unreached"; "spawn-budget"; "no-spawning"; "spawn-threshold";
      "nt-unattributed" ]
  || (String.length c > 14 && String.sub c 0 14 = "nt-terminated:")

(* The structural invariants every snapshot must satisfy: the frontier is
   exactly the uncovered edges, each with one recognised cause; the cause
   histogram sums back to the frontier; prime-path coverage is a count out
   of the enumerated universe. *)
let test_snapshot_invariants () =
  let v = json_of (observed_snapshot "print_tokens2") in
  Alcotest.(check int) "schema" Obs.schema_version (jint v "schema");
  let edges = Option.get (Jsonu.member "edges" v) in
  let frontier =
    match Jsonu.member "frontier" v with
    | Some (Jsonu.Arr l) -> l
    | _ -> Alcotest.fail "frontier must be an array"
  in
  Alcotest.(check int) "frontier = universe - combined"
    (jint edges "universe" - jint edges "combined")
    (List.length frontier);
  List.iter
    (fun entry ->
      match Jsonu.member "cause" entry with
      | Some (Jsonu.Str c) ->
        Alcotest.(check bool) ("known cause " ^ c) true (known_cause c)
      | _ -> Alcotest.fail "frontier entry must carry a string cause")
    frontier;
  (match Jsonu.member "frontier_causes" v with
   | Some (Jsonu.Obj causes) ->
     let total =
       List.fold_left
         (fun acc (c, n) ->
           Alcotest.(check bool) ("known cause " ^ c) true (known_cause c);
           match n with Jsonu.Num n -> acc + int_of_float n | _ -> acc)
         0 causes
     in
     Alcotest.(check int) "causes sum to frontier" (List.length frontier)
       total
   | _ -> Alcotest.fail "frontier_causes must be an object");
  let pp = Option.get (Jsonu.member "prime_paths" v) in
  let enumerated = jint pp "enumerated" and covered = jint pp "covered" in
  Alcotest.(check bool) "0 <= covered <= enumerated" true
    (0 <= covered && covered <= enumerated);
  Alcotest.(check bool) "some prime paths enumerated" true (enumerated > 0)

(* Baseline mode never spawns: every executed-but-uncovered edge must be
   attributed to no-spawning, and nothing to an NT-Path. Standard mode has
   spawning, so no-spawning must not appear. *)
let test_attribution_modes () =
  let causes_of mode =
    match
      Jsonu.member "frontier_causes"
        (json_of (observed_snapshot ~mode "print_tokens2"))
    with
    | Some (Jsonu.Obj causes) -> List.map fst causes
    | _ -> Alcotest.fail "frontier_causes must be an object"
  in
  let baseline = causes_of Pe_config.Baseline in
  Alcotest.(check bool) "baseline: no-spawning present" true
    (List.mem "no-spawning" baseline);
  List.iter
    (fun c ->
      Alcotest.(check bool) ("baseline cause " ^ c) true
        (c = "no-spawning" || c = "site-unreached"))
    baseline;
  let standard = causes_of Pe_config.Standard in
  Alcotest.(check bool) "standard: no-spawning absent" false
    (List.mem "no-spawning" standard)

(* Identical runs render identical snapshot bytes. *)
let test_snapshot_deterministic () =
  let a = Obs.to_json (observed_snapshot "schedule") in
  let b = Obs.to_json (observed_snapshot "schedule") in
  Alcotest.(check string) "snapshot bytes stable" a b

(* The capture protocol: a spec with [obs] arms each run's engine-side
   bookkeeping and keeps one snapshot per experiment run; without it a run
   is neither armed nor snapshotted. *)
let test_capture_protocol () =
  let run spec =
    let ctx = Exp_common.context ~spec ~out:ignore in
    let r = Exp_common.run_app ctx (Registry.find "schedule") in
    let _, snaps, _ = Exp_common.collected ctx in
    (r, snaps)
  in
  let r_plain, plain = run Run_spec.default in
  Alcotest.(check int) "unobserved run: no snapshot" 0 (List.length plain);
  Alcotest.(check bool) "unobserved run: no deopt counters" true
    (Telemetry.counter r_plain.Exp_common.machine.Machine.telemetry
       "obs.deopt.branch"
    = 0);
  let r, snaps = run { Run_spec.default with Run_spec.obs = true } in
  Alcotest.(check bool) "observed run: engine bookkeeping armed" true
    (Telemetry.counter r.Exp_common.machine.Machine.telemetry
       "obs.deopt.branch"
    > 0);
  Alcotest.(check int) "one snapshot per run" 1 (List.length snaps);
  Alcotest.(check string) "labelled" "schedule/standard" (fst (List.hd snaps));
  Alcotest.(check string) "same bytes as a direct snapshot"
    (Obs.to_json (observed_snapshot "schedule"))
    (snd (List.hd snaps))

(* ---- Prometheus exposition ------------------------------------------------ *)

let test_prometheus () =
  let t = Telemetry.create ~label:"app/standard" () in
  Telemetry.count t "nt.insns" 42;
  Telemetry.gauge t "fast.fraction" 0.5;
  Telemetry.observe t "spawn.len" 3;
  Telemetry.observe t "spawn.len" 200;
  let text = Telemetry.to_prometheus t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (let ln = String.length needle and lt = String.length text in
         let rec go i = i + ln <= lt && (String.sub text i ln = needle || go (i + 1)) in
         go 0))
    [
      "# TYPE pexp_nt_insns counter";
      {|pexp_nt_insns{run="app/standard"} 42|};
      {|pexp_fast_fraction{run="app/standard"} 0.5|};
      "# TYPE pexp_spawn_len histogram";
      {|pexp_spawn_len_count{run="app/standard"} 2|};
    ];
  Alcotest.(check string) "exposition deterministic" text
    (Telemetry.to_prometheus t)

(* ---- Telemetry reset and collector snapshot isolation --------------------- *)

let test_telemetry_reset () =
  let t = Telemetry.create ~label:"keep-me" () in
  Telemetry.count t "a" 7;
  Telemetry.gauge t "g" 1.5;
  Telemetry.observe t "h" 9;
  Telemetry.timer_record t "t" 0.25;
  Telemetry.reset t;
  Alcotest.(check string) "label survives" "keep-me" (Telemetry.label t);
  Alcotest.(check int) "counter cleared" 0 (Telemetry.counter t "a");
  Alcotest.(check bool) "gauge cleared" true (Telemetry.gauge_value t "g" = None);
  Alcotest.(check int) "hist cleared" 0 (Telemetry.hist_count t "h");
  Alcotest.(check string) "renders like a fresh sink"
    (Telemetry.to_json (Telemetry.create ~label:"keep-me" ()))
    (Telemetry.to_json t)

(* Regression: a telemetry-collecting context receives each run's sink
   exactly once, and nothing in the sweep funnel mutates a sink after the
   run that filled it returns — what the context held then is what it
   holds at the end. (The sinks are shared by reference, so a later
   [reset] *would* rewrite history; this pins that no engine/experiment
   code path does.) *)
let test_collector_snapshot_isolation () =
  let ctx =
    Exp_common.context
      ~spec:{ Run_spec.default with Run_spec.telemetry = true }
      ~out:ignore
  in
  let run name =
    ignore (Exp_common.run_app ctx (Registry.find name));
    let _, _, sinks = Exp_common.collected ctx in
    let t = List.nth sinks (List.length sinks - 1) in
    (t, Telemetry.to_json t)
  in
  let ((t1, _) as first) = run "schedule" in
  let ((t2, _) as second) = run "print_tokens" in
  let _, _, sinks = Exp_common.collected ctx in
  Alcotest.(check int) "one sink per run" 2 (List.length sinks);
  Alcotest.(check bool) "distinct sinks, in run order" true
    (t1 != t2 && List.for_all2 ( == ) sinks [ t1; t2 ]);
  List.iter
    (fun (t, at_return) ->
      Alcotest.(check string)
        ("unchanged since its run: " ^ Telemetry.label t)
        at_return (Telemetry.to_json t))
    [ first; second ]

(* Deopt causes under armed watchpoints: the fast tier keeps running and
   stops only before a watch/unwatch or an access to a watched word. A
   stop at a valid, watched address is a [watch] deopt, not a [fault], and
   no instruction is pinned to the hooked step. The use-after-free
   read and write both touch the freed, watched payload. *)
let test_deopt_watch () =
  let source =
    "int main() { int *p = malloc(4); free(p); print_int(p[0]); p[1] = 3; \
     exit(0); return 0; }"
  in
  let options = { Codegen.detector = Codegen.Iwatcher; fixing = true } in
  let compiled = Compile.compile ~options source in
  let machine = Machine.create compiled.Compile.program in
  let result = Engine.run ~obs:true machine in
  let c = Telemetry.counter machine.Machine.telemetry in
  Alcotest.(check string) "exits" "exited(0)"
    (Engine.outcome_name result.Engine.outcome);
  Alcotest.(check bool) "use after free reported" true
    (Report.count machine.Machine.reports >= 2);
  Alcotest.(check bool) "fast tier engaged" true (result.Engine.fast_insns > 0);
  (* two watches (malloc's red zone, free's payload) and two accesses *)
  Alcotest.(check int) "watch deopts" 4 (c "obs.deopt.watch");
  Alcotest.(check int) "no fault deopts" 0 (c "obs.deopt.fault");
  Alcotest.(check int) "nothing pinned" 0 (c "obs.pinned_insns")

(* A store hook's range is a detector's, not a watchpoint's: with DIDUCE
   attached and no watchpoint armed, a stop before a store into the
   globals is a [detector] deopt, and nothing is pinned unless the tick
   leaves no budget: a zero counter-reset interval pins every taken-path
   instruction, so no segment runs and none deoptimizes. *)
let test_deopt_store_hook () =
  let w = Registry.schedule in
  let program = (Workload.compile w).Compile.program in
  let run config =
    let machine = Machine.create ~input:w.Workload.default_input program in
    Diduce.attach (Diduce.create program) machine;
    ignore (Engine.run ~obs:true ~config machine);
    Telemetry.counter machine.Machine.telemetry
  in
  let config = Workload.pe_config w in
  let c = run config in
  Alcotest.(check bool) "hooked stores are detector deopts" true
    (c "obs.deopt.detector" > 0);
  Alcotest.(check int) "no watch deopts" 0 (c "obs.deopt.watch");
  Alcotest.(check int) "nothing pinned" 0 (c "obs.pinned_insns");
  let c = run { config with Pe_config.counter_reset_interval = 0 } in
  Alcotest.(check int) "zero-budget tick: no segment, no deopt" 0
    (c "obs.deopt.detector");
  Alcotest.(check int) "zero-budget tick: every taken instruction pinned"
    (c "taken.insns") (c "obs.pinned_insns")

let tests =
  [
    Alcotest.test_case "prime: diamond" `Quick test_prime_diamond;
    Alcotest.test_case "prime: while loop" `Quick test_prime_while;
    Alcotest.test_case "prime: nested loop" `Quick test_prime_nested;
    Alcotest.test_case "prime: chain" `Quick test_prime_chain;
    Alcotest.test_case "prime: self loop" `Quick test_prime_self_loop;
    Alcotest.test_case "prime: truncation reported" `Quick
      test_prime_truncation;
    QCheck_alcotest.to_alcotest prop_primes_simple;
    QCheck_alcotest.to_alcotest prop_primes_maximal;
    Alcotest.test_case "snapshot: invariants" `Quick test_snapshot_invariants;
    Alcotest.test_case "snapshot: attribution by mode" `Quick
      test_attribution_modes;
    Alcotest.test_case "snapshot: deterministic bytes" `Quick
      test_snapshot_deterministic;
    Alcotest.test_case "snapshot: capture protocol" `Quick
      test_capture_protocol;
    Alcotest.test_case "deopt causes under store hook" `Quick
      test_deopt_store_hook;
    Alcotest.test_case "deopt causes under armed watchpoints" `Quick
      test_deopt_watch;
    Alcotest.test_case "telemetry: prometheus exposition" `Quick
      test_prometheus;
    Alcotest.test_case "telemetry: reset" `Quick test_telemetry_reset;
    Alcotest.test_case "telemetry: collector snapshot isolation" `Quick
      test_collector_snapshot_isolation;
  ]
