(* Parallel harness tests: the Pool domain pool (ordering, nesting,
   exceptions), the experiment context's output, and end-to-end determinism
   of the experiment runner — a parallel sweep must print exactly the
   serial bytes. *)

let range n = List.init n (fun i -> i)

let test_pool_order () =
  let xs = range 100 in
  Alcotest.(check (list int)) "matches serial map"
    (List.map (fun x -> (x * 31) mod 97) xs)
    (Pool.map ~jobs:4 (fun x -> (x * 31) mod 97) xs)

let test_pool_degenerate () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map ~jobs:4 succ [ 1 ]);
  Alcotest.(check (list int)) "more jobs than work" [ 1; 2; 3 ]
    (Pool.map ~jobs:16 succ [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "jobs=1 is List.map" [ 1; 2 ]
    (Pool.map ~jobs:1 succ [ 0; 1 ])

let test_pool_nested () =
  (* an inner map inside a worker degrades to serial instead of spawning
     another pool; results are still positional *)
  let out =
    Pool.map ~jobs:3
      (fun x ->
        Alcotest.(check bool) "inside worker" true (Pool.in_worker ());
        Pool.map ~jobs:3 (fun y -> (10 * x) + y) [ 1; 2 ])
      (range 5)
  in
  Alcotest.(check (list (list int))) "nested results"
    (List.map (fun x -> [ (10 * x) + 1; (10 * x) + 2 ]) (range 5))
    out;
  Alcotest.(check bool) "not a worker outside" false (Pool.in_worker ())

let test_pool_exception () =
  Alcotest.check_raises "worker exception re-raised" Exit (fun () ->
      ignore (Pool.map ~jobs:4 (fun x -> if x = 7 then raise Exit else x) (range 20)))

let test_context_output () =
  let buf = Buffer.create 64 in
  let ctx =
    Exp_common.context ~spec:Run_spec.default ~out:(Buffer.add_string buf)
  in
  Exp_common.print ctx "a";
  Exp_common.printf ctx "%d" 1;
  Exp_common.heading ctx "h";
  Exp_common.table ctx ~header:[ "x" ] [ [ "1" ] ];
  Alcotest.(check string) "captured"
    ("a1\n=== h ===\n" ^ Table.render ~header:[ "x" ] [ [ "1" ] ] ^ "\n")
    (Buffer.contents buf)

let capture ~jobs e =
  (Runner.capture { Run_spec.default with Run_spec.jobs } e).Runner.stdout

let experiment id =
  match Runner.find id with
  | Some e -> e
  | None -> Alcotest.failf "experiment %s missing from registry" id

(* The headline acceptance test: an experiment whose inner sweep fans across
   real domains (abl1 par_maps three workloads) must produce byte-identical
   output to its serial run. *)
let test_experiment_determinism () =
  let e = experiment "abl1" in
  let serial = capture ~jobs:1 e in
  let parallel = capture ~jobs:4 e in
  Alcotest.(check bool) "produced output" true (String.length serial > 0);
  Alcotest.(check string) "jobs=4 byte-identical to serial" serial parallel

(* Run as a single leg with traces and snapshots captured, abl1 stays on the
   caller's domain and fans its runs out to pool workers: every run's trace
   and snapshot must still come back, equal to a serial capture. *)
let test_fanned_out_leg () =
  let e = experiment "abl1" in
  let capturing = { Run_spec.default with Run_spec.trace = true; obs = true } in
  let leg jobs =
    let spec = { capturing with Run_spec.jobs } in
    match Runner.run_list ~out:ignore spec [ e ] with
    | [ a ] -> a
    | _ -> Alcotest.fail "one leg in, one leg out"
  in
  let serial = leg 1 and fanned = leg 2 in
  Alcotest.(check int) "serial traces" 6 (List.length serial.Runner.traces);
  Alcotest.(check int) "serial snapshots" 6 (List.length serial.Runner.obs);
  Alcotest.(check string) "fanned-out stdout" serial.Runner.stdout
    fanned.Runner.stdout;
  Alcotest.(check bool) "fanned-out traces match the serial capture" true
    (fanned.Runner.traces = serial.Runner.traces);
  Alcotest.(check bool) "fanned-out snapshots match the serial capture" true
    (fanned.Runner.obs = serial.Runner.obs)

let test_runner_parallel_order () =
  (* experiment-level fan-out: captured outputs are printed in registry
     order, so a parallel run of several experiments concatenates exactly *)
  let es = List.map experiment [ "tab2"; "tab3" ] in
  let expected = String.concat "" (List.map (capture ~jobs:1) es) in
  let streamed = Buffer.create 4096 in
  ignore
    (Runner.run_list ~out:(Buffer.add_string streamed)
       { Run_spec.default with Run_spec.jobs = 2 }
       es);
  Alcotest.(check string) "order preserved" expected
    (Buffer.contents streamed)

let tests =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_order;
    Alcotest.test_case "pool degenerate inputs" `Quick test_pool_degenerate;
    Alcotest.test_case "pool nested maps" `Quick test_pool_nested;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "context output capture" `Quick test_context_output;
    Alcotest.test_case "sweep determinism (jobs=4 = serial)" `Slow
      test_experiment_determinism;
    Alcotest.test_case "fanned-out leg captures" `Slow test_fanned_out_leg;
    Alcotest.test_case "runner output order" `Quick test_runner_parallel_order;
  ]
