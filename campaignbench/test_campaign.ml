(* The campaign benchmark's own tests: every workload runs a few ops in both
   output modes and prints each metric BENCHMARK.json names, with its unit,
   as a finite number in valid JSON; a run is repeatable to the digest; a
   corrupted reference output is counted as a failed op; and a part run in
   a fresh process comes back whole. *)

let spec =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Jsonu.parse text with Ok v -> v | Error e -> failwith e

(* (name, unit) of every metric in one BENCHMARK.json section. *)
let declared section =
  match Jsonu.member section spec with
  | Some (Jsonu.Arr items) ->
    List.map
      (fun m ->
        match (Jsonu.member "name" m, Jsonu.member "unit" m) with
        | Some (Jsonu.Str n), Some (Jsonu.Str u) -> (n, u)
        | _ -> failwith "BENCHMARK.json: metric without name or unit")
      items
  | _ -> failwith ("BENCHMARK.json: no " ^ section)

let measure ?tamper workload ~trace =
  let spawn part = Campaign.run_part ?tamper workload ~seed:7 ~ops:3 ~part in
  Campaign.measure ~spawn workload ~seed:7 ~ops:3 ~trace

(* The result line must parse and carry exactly the declared metrics. *)
let check_printed workload ~trace =
  let o = measure workload ~trace in
  let name = Campaign.workload_name workload in
  Alcotest.(check int) (name ^ " attempted") 3 o.Campaign.attempted;
  Alcotest.(check int) (name ^ " failed") 0 o.Campaign.failed;
  Alcotest.(check bool) (name ^ " correct") true o.Campaign.correct;
  let json =
    match Jsonu.parse (Campaign.to_json o) with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: result line is not JSON: %s" name e
  in
  let printed =
    match Jsonu.member "metrics" json with
    | Some (Jsonu.Obj fields) -> fields
    | _ -> Alcotest.failf "%s: no metrics object" name
  in
  let expected = declared (if trace then "per_layer" else "end_to_end") in
  Alcotest.(check (list string))
    (name ^ " metric names")
    (List.sort compare (List.map fst expected))
    (List.sort compare (List.map fst printed));
  List.iter
    (fun (metric, unit_) ->
      let m = List.assoc metric printed in
      (match Jsonu.member "unit" m with
       | Some (Jsonu.Str u) -> Alcotest.(check string) (metric ^ " unit") unit_ u
       | _ -> Alcotest.failf "%s: %s has no unit" name metric);
      match Jsonu.member "value" m with
      | Some (Jsonu.Num v) when Float.is_finite v -> ()
      | _ -> Alcotest.failf "%s: %s is not a finite number" name metric)
    expected

let smoke workload () =
  check_printed workload ~trace:false;
  check_printed workload ~trace:true

let repeatable () =
  let a = measure Campaign.Compile_run ~trace:false in
  let b = measure Campaign.Compile_run ~trace:false in
  Alcotest.(check string) "same seed, same digest" a.Campaign.digest b.Campaign.digest

let corrupted_reference () =
  let corrupt plan =
    Hashtbl.filter_map_inplace
      (fun _ r -> Some { r with Campaign.ref_output = r.Campaign.ref_output ^ "!" })
      plan.Campaign.references
  in
  let o = measure ~tamper:corrupt Campaign.Compile_run ~trace:false in
  Alcotest.(check int) "every op fails its check" 3 o.Campaign.failed;
  Alcotest.(check bool) "run not correct" false o.Campaign.correct

(* An untraced run's parts come back from fresh processes of main.exe: a
   part must arrive whole, with the ops and set-up time it ran in its own
   process, and a process that cannot run its part must fail the run. *)
let spawned_part () =
  let spawn workload =
    Campaign.spawn_part ~exe:"./main.exe"
      [ "--workload"; workload; "--seed"; "7"; "--seconds"; "1"; "--trace"; "0" ]
  in
  let ops = Campaign.op_count Campaign.Detect ~seconds:1 in
  let part = Campaign.parts - 1 in
  let spawned = spawn "detect" part in
  let local = Campaign.run_part Campaign.Detect ~seed:7 ~ops ~part in
  let digest (p : Campaign.part) =
    Campaign.sim_digest p.Campaign.pass.Campaign.ctx.Campaign.sim
  in
  Alcotest.(check string) "same simulated statistics" (digest local) (digest spawned);
  Alcotest.(check int) "same op count"
    (Array.length local.Campaign.pass.Campaign.ok)
    (Array.length spawned.Campaign.pass.Campaign.ok);
  let seconds = spawned.Campaign.setup_s in
  Alcotest.(check bool) "cold set-up takes a finite, positive time" true
    (Float.is_finite seconds && seconds > 0.);
  Alcotest.check_raises "bad arguments fail the part"
    (Failure "campaignbench: part process failed") (fun () ->
      ignore (spawn "no-such-workload" 0))

let () =
  Alcotest.run "campaignbench"
    [
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case (Campaign.workload_name w) `Slow (smoke w))
          Campaign.workloads );
      ( "checks",
        [
          Alcotest.test_case "repeatable digest" `Quick repeatable;
          Alcotest.test_case "corrupted reference fails" `Quick corrupted_reference;
          Alcotest.test_case "spawned part" `Quick spawned_part;
        ] );
    ]
