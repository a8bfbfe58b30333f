(* NT-Path trace tests: histogram bucket edges, the derived trace's
   completeness and lifecycle blocks, trace determinism, exporter validity
   (every JSONL line and the Chrome JSON parse), and bug-event provenance
   agreeing with the report log. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_contains msg needle hay =
  Alcotest.(check bool) (msg ^ ": " ^ needle) true (contains ~needle hay)

(* --- histograms ---------------------------------------------------------- *)

let test_hist_bucket_edges () =
  let t = Telemetry.create () in
  (* Bucket 0 holds v <= 0; bucket i >= 1 holds [2^(i-1), 2^i - 1]. *)
  List.iter (Telemetry.observe t "h") [ min_int; -1; 0 ];
  Alcotest.(check (list (pair int int)))
    "non-positive values collapse into the zero bucket"
    [ (0, 3) ]
    (Telemetry.hist_buckets t "h");
  let t = Telemetry.create () in
  List.iter (Telemetry.observe t "h") [ 1; 2; 3; 4; 7; 8 ];
  Alcotest.(check (list (pair int int)))
    "power-of-two boundaries split buckets"
    [ (1, 1); (2, 2); (4, 2); (8, 1) ]
    (Telemetry.hist_buckets t "h");
  Alcotest.(check int) "count" 6 (Telemetry.hist_count t "h");
  let t = Telemetry.create () in
  Telemetry.observe t "h" max_int;
  Alcotest.(check (list (pair int int)))
    "max_int lands in the top bucket"
    [ (1 lsl 61, 1) ]
    (Telemetry.hist_buckets t "h")

let test_hist_json () =
  let t = Telemetry.create ~label:"hj" () in
  Telemetry.observe t "nt.len" 5;
  Telemetry.observe t "nt.len" 100;
  let json = Telemetry.to_json t in
  check_contains "hists key present" {|"hists":{"nt.len":{"count":2|} json;
  check_contains "sum" {|"sum":105|} json;
  check_contains "min" {|"min":5|} json;
  check_contains "max" {|"max":100|} json;
  Alcotest.(check bool) "json parses" true
    (Result.is_ok (Jsonu.parse json))

let test_hist_aggregate () =
  let a = Telemetry.create () and b = Telemetry.create () in
  Telemetry.observe a "h" 3;
  Telemetry.observe b "h" 3;
  Telemetry.observe b "h" 1000;
  let json = Telemetry.aggregate_json [ a; b ] in
  check_contains "bucket-wise merge" {|[2,2]|} json;
  check_contains "count merged" {|"count":3|} json;
  Alcotest.(check bool) "aggregate parses" true
    (Result.is_ok (Jsonu.parse json))

(* --- engine integration --------------------------------------------------- *)

let buggy_source =
  {|
int flag = 0;
int arr[4];
int out = 0;

void rare(int i) {
  // out-of-bounds when forced with a large i: only an NT-Path sees it
  arr[i] = 1;
  out = out + 1;
}

int main() {
  int i;
  for (i = 0; i < 12; i = i + 1) {
    if (flag == 1) {
      rare(i);
    }
    out = out + 1;
  }
  print_int(out);
  return 0;
}
|}

let run_traced ?(label = "run") machine result =
  (machine, Trace.of_run ~label result (Report.entries machine.Machine.reports), result)

let traced_run ?(source = buggy_source) () =
  let compiled =
    Compile.compile ~options:{ Codegen.default_options with Codegen.detector = Codegen.Ccured }
      source
  in
  let machine = Machine.create compiled.Compile.program in
  run_traced machine (Engine.run machine)

let test_engine_trace_deterministic () =
  let _, t1, _ = traced_run () in
  let _, t2, _ = traced_run () in
  Alcotest.(check bool) "events derived" true (List.length t1.Trace.events > 0);
  Alcotest.(check string) "identical runs give identical JSONL"
    (Trace.to_jsonl t1) (Trace.to_jsonl t2);
  Alcotest.(check string) "identical Chrome traces"
    (Trace.to_chrome t1) (Trace.to_chrome t2)

(* Every NT-Path is one contiguous block — spawn, its own bugs, a squash
   iff it left dirty lines, its termination — one block per record, in
   spawn order. Outside the blocks only taken-path bugs and counter resets
   occur, and those happen on the primary core, whose clock never runs
   backwards: with each block stamped at its spawn, the primary core's
   events are in time order. *)
let check_lifecycle name (trace : Trace.t) (result : Engine.result) =
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.failf "%s: %s" name m) fmt in
  let rec blocks clock records = function
    | [] -> if records <> [] then fail "%d records without a block" (List.length records)
    | Trace.Spawn { at; path_id; br_pc; _ } :: rest ->
      (match records with
       | [] -> fail "a spawn without a record"
       | (r : Nt_path.record) :: records ->
         if at < clock then fail "spawn at %d before the primary clock %d" at clock;
         if path_id <> r.Nt_path.path_id || br_pc <> r.Nt_path.spawn_br_pc then
           fail "spawn of path %d does not match its record" path_id;
         let rec inside squashed = function
           | Trace.Bug_detected { origin; at = b; _ } :: rest when origin = path_id ->
             if b < at then fail "bug before its spawn";
             inside squashed rest
           | Trace.Squash { owner; lines; _ } :: rest when owner = path_id && not squashed ->
             if lines <> r.Nt_path.squashed_lines then fail "squash lines";
             inside true rest
           | Trace.Terminate { path_id = p; at = t; len; dirty_lines; _ } :: rest
             when p = path_id ->
             if t < at then fail "terminate before its spawn";
             if len <> r.Nt_path.insns || dirty_lines <> r.Nt_path.squashed_lines then
               fail "terminate of path %d does not match its record" p;
             if squashed <> (dirty_lines > 0) then fail "squash iff dirty lines";
             blocks at records rest
           | _ -> fail "path %d's block is not contiguous" path_id
         in
         inside false rest)
    | (Trace.Bug_detected { at; origin = 0; _ } | Trace.Counter_reset { at; _ }) :: rest ->
      if at < clock then fail "taken-path event at %d before %d" at clock;
      blocks at records rest
    | _ :: _ -> fail "an NT-Path event outside its block"
  in
  blocks 0 result.Engine.nt_records trace.Trace.events

let test_engine_trace_lifecycle () =
  let _, trace, result = traced_run () in
  let spawns =
    List.filter_map
      (function Trace.Spawn { path_id; _ } -> Some path_id | _ -> None)
      trace.Trace.events
  in
  Alcotest.(check int) "one spawn event per engine spawn"
    result.Engine.spawns (List.length spawns);
  check_lifecycle "buggy program" trace result

(* The trace is derived from the run's records, so it is complete however
   long the run: 164.gzip's standard run at NTPathCounterThreshold 16 (the
   parameter sweep's last column) makes more events than the 65,536 a
   fixed ring once held, and every one is there. *)
let test_long_trace_complete () =
  let w = Registry.find "164.gzip" in
  let compiled = Workload.compile w in
  let machine = Machine.create ~input:w.Workload.default_input compiled.Compile.program in
  let config =
    { (Workload.pe_config w) with Pe_config.nt_counter_threshold = 16 }
  in
  let _, trace, result = run_traced machine (Engine.run ~config machine) in
  let count p = List.length (List.filter p trace.Trace.events) in
  Alcotest.(check bool) "longer than the old ring" true
    (List.length trace.Trace.events > 65_536);
  Alcotest.(check int) "a spawn event per spawn" result.Engine.spawns
    (count (function Trace.Spawn _ -> true | _ -> false));
  Alcotest.(check int) "a terminate per record"
    (List.length result.Engine.nt_records)
    (count (function Trace.Terminate _ -> true | _ -> false));
  Alcotest.(check int) "a bug per report"
    (Report.count machine.Machine.reports)
    (count (function Trace.Bug_detected _ -> true | _ -> false));
  Alcotest.(check int) "a reset per counter reset"
    (List.length result.Engine.counter_resets)
    (count (function Trace.Counter_reset _ -> true | _ -> false));
  check_lifecycle "164.gzip" trace result

let test_bug_provenance_matches_reports () =
  let machine, trace, result = traced_run () in
  let reports = Report.entries machine.Machine.reports in
  Alcotest.(check bool) "the planted bug fires" true (List.length reports > 0);
  let bug_events =
    List.filter_map
      (function
        | Trace.Bug_detected { at; site; origin; spawn_site; edge; pc } ->
          Some (at, site, origin, spawn_site, edge, pc)
        | _ -> None)
      trace.Trace.events
  in
  Alcotest.(check int) "one Bug_detected event per filed report"
    (List.length reports) (List.length bug_events);
  (* A report filed inside an NT-Path lies in its record's range of the
     log, and its event is timed at the spawn plus the path's own cycle. *)
  let filer i =
    List.find
      (fun (r : Nt_path.record) ->
        r.Nt_path.first_report <= i
        && i < r.Nt_path.first_report + r.Nt_path.reports)
      result.Engine.nt_records
  in
  List.iteri
    (fun i ((e : Report.entry), (at, site, origin, spawn_site, edge, pc)) ->
      Alcotest.(check int) "site" e.Report.site site;
      Alcotest.(check int) "pc" e.Report.pc pc;
      Alcotest.(check int) "spawn site" e.Report.spawn_br_pc spawn_site;
      Alcotest.(check int) "branch edge" e.Report.branch_edge edge;
      match e.Report.origin with
      | Report.Taken_path ->
        Alcotest.(check int) "taken origin" 0 origin;
        Alcotest.(check int) "taken bug at its cycle" e.Report.cycle at
      | Report.Nt_path id ->
        let r = filer i in
        Alcotest.(check int) "nt origin" id origin;
        Alcotest.(check int) "filed by its path" r.Nt_path.path_id id;
        Alcotest.(check int) "nt bug at spawn + path cycle"
          (r.Nt_path.spawn_cycle + e.Report.cycle) at)
    (List.combine reports bug_events);
  (* NT-origin reports name a real spawning edge, and the report log's
     distinct-edge view agrees with the trace. *)
  List.iter
    (fun (e : Report.entry) ->
      match e.Report.origin with
      | Report.Nt_path _ ->
        Alcotest.(check bool) "nt report names its edge" true
          (e.Report.spawn_br_pc >= 0 && e.Report.branch_edge >= 0)
      | Report.Taken_path ->
        Alcotest.(check int) "taken report has no edge" (-1)
          e.Report.spawn_br_pc)
    reports;
  Alcotest.(check bool) "spawn_edges view is non-empty" true
    (Report.spawn_edges machine.Machine.reports <> [])

(* --- exporters ------------------------------------------------------------ *)

let test_jsonl_every_line_parses () =
  let machine, _, result = traced_run () in
  let _, trace, _ =
    run_traced ~label:"weird \"label\"\nwith newline" machine result
  in
  let jsonl = Trace.to_jsonl trace in
  let lines = String.split_on_char '\n' jsonl in
  let lines = List.filter (fun l -> l <> "") lines in
  Alcotest.(check bool) "has meta + events" true (List.length lines > 1);
  List.iteri
    (fun i line ->
      match Jsonu.parse line with
      | Ok v ->
        (match Jsonu.member "type" v with
         | Some (Jsonu.Str ty) ->
           if i = 0 then Alcotest.(check string) "meta first" "meta" ty
         | _ -> Alcotest.fail (Printf.sprintf "line %d lacks type" (i + 1)))
      | Error e ->
        Alcotest.fail (Printf.sprintf "line %d invalid: %s" (i + 1) e))
    lines;
  (* The escaped label round-trips exactly, and the meta line counts the
     event lines that follow it; a complete trace needs no drop count. *)
  match Jsonu.parse (List.hd lines) with
  | Ok meta ->
    (match Jsonu.member "label" meta with
     | Some (Jsonu.Str l) ->
       Alcotest.(check string) "label round-trips" "weird \"label\"\nwith newline" l
     | _ -> Alcotest.fail "meta lacks label");
    Alcotest.(check bool) "schema 2" true
      (Jsonu.member "schema" meta = Some (Jsonu.Num 2.0));
    Alcotest.(check bool) "events counted" true
      (Jsonu.member "events" meta
      = Some (Jsonu.Num (float_of_int (List.length lines - 1))));
    Alcotest.(check bool) "no drop accounting" true
      (Jsonu.member "dropped" meta = None && Jsonu.member "total" meta = None)
  | Error e -> Alcotest.fail e

let test_chrome_output_valid () =
  let _, trace, result = traced_run () in
  let chrome = Trace.to_chrome trace in
  match Jsonu.parse chrome with
  | Error e -> Alcotest.fail ("chrome trace invalid: " ^ e)
  | Ok v ->
    (match Jsonu.member "traceEvents" v with
     | Some (Jsonu.Arr evs) ->
       (* every spawn/terminate pair renders as one complete slice *)
       let slices =
         List.filter
           (fun ev ->
             match Jsonu.member "ph" ev with
             | Some (Jsonu.Str "X") -> true
             | _ -> false)
           evs
       in
       Alcotest.(check int) "one X slice per NT-Path" result.Engine.spawns
         (List.length slices);
       List.iter
         (fun ev ->
           match Jsonu.member "dur" ev with
           | Some (Jsonu.Num d) ->
             Alcotest.(check bool) "slice duration non-negative" true (d >= 0.0)
           | _ -> Alcotest.fail "X slice lacks dur")
         slices
     | _ -> Alcotest.fail "missing traceEvents array")

(* --- run-spec capture ----------------------------------------------------- *)

(* A run made through the experiment harness keeps its trace exactly when
   the spec traces, and the trace lands in the context. *)
let test_spec_capture () =
  let run spec =
    let ctx = Exp_common.context ~spec ~out:ignore in
    let r = Exp_common.run_app ctx (Registry.find "schedule") in
    let traces, _, _ = Exp_common.collected ctx in
    (r, traces)
  in
  let _, plain = run Run_spec.default in
  Alcotest.(check int) "nothing captured untraced" 0 (List.length plain);
  let _, dumps = run { Run_spec.default with Run_spec.trace = true } in
  Alcotest.(check (list string)) "one labelled trace per run"
    [ "schedule/standard" ] (List.map fst dumps);
  (* save_dir writes deterministically named, parseable files *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "pexp_trace_test" in
  let files = Trace.save_dir ~dir dumps in
  Alcotest.(check int) "one file per trace" (List.length dumps)
    (List.length files);
  List.iter
    (fun f ->
      let ic = open_in f in
      (try
         while true do
           match Jsonu.parse (input_line ic) with
           | Ok _ -> ()
           | Error e -> Alcotest.fail (f ^ ": " ^ e)
         done
       with End_of_file -> ());
      close_in ic;
      Sys.remove f)
    files

let tests =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_hist_bucket_edges;
    Alcotest.test_case "histogram JSON shape" `Quick test_hist_json;
    Alcotest.test_case "histogram aggregation" `Quick test_hist_aggregate;
    Alcotest.test_case "engine trace is deterministic" `Quick
      test_engine_trace_deterministic;
    Alcotest.test_case "spawn/terminate lifecycle" `Quick
      test_engine_trace_lifecycle;
    Alcotest.test_case "long trace is complete" `Quick test_long_trace_complete;
    Alcotest.test_case "bug provenance matches reports" `Quick
      test_bug_provenance_matches_reports;
    Alcotest.test_case "JSONL lines all parse" `Quick
      test_jsonl_every_line_parses;
    Alcotest.test_case "Chrome trace is valid" `Quick test_chrome_output_valid;
    Alcotest.test_case "spec trace capture + save_dir" `Quick test_spec_capture;
  ]
