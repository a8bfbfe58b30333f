(* Telemetry sink tests: counters, gauges, spans/timers, the JSON shape
   (sorted keys, escaping), aggregation and the experiment context's run
   collector. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains msg needle hay =
  Alcotest.(check bool) (msg ^ ": " ^ needle) true (contains ~needle hay)

let test_counters () =
  let t = Telemetry.create () in
  Alcotest.(check int) "untouched reads zero" 0 (Telemetry.counter t "a");
  Telemetry.incr t "a";
  Telemetry.incr t "a";
  Telemetry.count t "a" 5;
  Alcotest.(check int) "accumulates" 7 (Telemetry.counter t "a");
  Alcotest.(check int) "independent names" 0 (Telemetry.counter t "b")

let test_gauges () =
  let t = Telemetry.create () in
  Alcotest.(check (option (float 0.0))) "unset" None (Telemetry.gauge_value t "g");
  Telemetry.gauge t "g" 1.5;
  Telemetry.gauge t "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "last write wins" (Some 2.5)
    (Telemetry.gauge_value t "g")

let test_span () =
  let t = Telemetry.create () in
  let v = Telemetry.span t "work" (fun () -> 41 + 1) in
  Alcotest.(check int) "span returns the result" 42 v;
  Alcotest.(check bool) "timer accumulated" true
    (Telemetry.timer_total t "work" >= 0.0);
  let v2 =
    Telemetry.span t "outer" (fun () ->
        Telemetry.span t "work" (fun () -> 1))
  in
  Alcotest.(check int) "nested span" 1 v2;
  Telemetry.timer_record t "ext" 0.25;
  Alcotest.(check (float 1e-9)) "recorded duration" 0.25
    (Telemetry.timer_total t "ext")

let test_span_reraises () =
  let t = Telemetry.create () in
  Alcotest.check_raises "exception passes through" Exit (fun () ->
      Telemetry.span t "boom" (fun () -> raise Exit))

let test_json_shape () =
  let t = Telemetry.create ~label:{|sched/"std"|} () in
  Telemetry.incr t "zeta";
  Telemetry.incr t "alpha";
  Telemetry.gauge t "rate" 0.5;
  ignore (Telemetry.span t "phase" (fun () -> ()));
  let json = Telemetry.to_json t in
  check_contains "label escaped" {|"label":"sched/\"std\""|} json;
  check_contains "counter" {|"alpha":1|} json;
  check_contains "gauge" {|"rate":0.5|} json;
  check_contains "timer fields" {|"count":1|} json;
  (* deterministic key order: sorted *)
  let ia = String.index json 'a' in
  Alcotest.(check bool) "alpha before zeta" true
    (contains ~needle:"alpha"
       (String.sub json ia (String.length json - ia))
    && not (contains ~needle:"zeta" (String.sub json 0 ia)))

let test_aggregate () =
  let mk n =
    let t = Telemetry.create ~label:(Printf.sprintf "run%d" n) () in
    Telemetry.count t "spawns" n;
    Telemetry.gauge t "pct" (float_of_int n);
    t
  in
  let json = Telemetry.aggregate_json [ mk 1; mk 3 ] in
  check_contains "run count" {|"runs":2|} json;
  check_contains "sum" {|"sum":4|} json;
  check_contains "mean" {|"mean":2|} json;
  check_contains "min" {|"min":1|} json;
  check_contains "max" {|"max":3|} json

(* The run collector is the experiment context: it keeps every run's sink,
   in run order, exactly when the spec asks for telemetry. *)
let test_collector () =
  let sinks spec =
    let ctx = Exp_common.context ~spec ~out:ignore in
    let schedule = Registry.find "schedule" in
    ignore (Exp_common.run_app ctx ~mode:Pe_config.Baseline schedule);
    ignore (Exp_common.run_app ctx schedule);
    let _, _, sinks = Exp_common.collected ctx in
    List.map Telemetry.label sinks
  in
  Alcotest.(check (list string)) "nothing kept without telemetry" []
    (sinks Run_spec.default);
  Alcotest.(check (list string)) "run order"
    [ "schedule/baseline"; "schedule/standard" ]
    (sinks { Run_spec.default with Run_spec.telemetry = true })

let tests =
  [
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "gauges" `Quick test_gauges;
    Alcotest.test_case "spans and timers" `Quick test_span;
    Alcotest.test_case "span re-raises" `Quick test_span_reraises;
    Alcotest.test_case "json shape" `Quick test_json_shape;
    Alcotest.test_case "aggregate" `Quick test_aggregate;
    Alcotest.test_case "run collector" `Quick test_collector;
  ]
