(* Flight-recorder tests: histogram bucket edges, span-trace drop
   accounting, ring-buffer semantics, trace determinism, exporter validity
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

(* --- ring buffer semantics ----------------------------------------------- *)

let test_ring_overflow () =
  let r = Recorder.create ~capacity:4 () in
  for i = 1 to 6 do
    Recorder.set_local r (10 * i);
    Recorder.emit_counter_reset r ~insns:i
  done;
  Alcotest.(check int) "length is capped" 4 (Recorder.length r);
  Alcotest.(check int) "total keeps counting" 6 (Recorder.total r);
  Alcotest.(check int) "dropped = total - capacity" 2 (Recorder.dropped r);
  let insns =
    List.map
      (function
        | Recorder.Counter_reset { insns; _ } -> insns
        | _ -> Alcotest.fail "unexpected event kind")
      (Recorder.events r)
  in
  Alcotest.(check (list int)) "oldest events overwritten, order kept"
    [ 3; 4; 5; 6 ] insns

let test_disabled_is_noop () =
  let r = Recorder.disabled in
  Recorder.set_base r 100;
  Recorder.set_local r 100;
  Recorder.emit_spawn r ~path_id:1 ~br_pc:2 ~edge:true ~entry_pc:3;
  Recorder.emit_bug r ~site:1 ~origin:1 ~spawn_site:2 ~edge:0 ~pc:9;
  Alcotest.(check bool) "disabled" false (Recorder.enabled r);
  Alcotest.(check int) "no events recorded" 0 (Recorder.total r)

let test_clock_base_local () =
  let r = Recorder.create () in
  Recorder.set_local r 40;
  Recorder.emit_spawn r ~path_id:1 ~br_pc:7 ~edge:false ~entry_pc:8;
  Recorder.set_base r 40;
  Recorder.set_local r 5;
  Recorder.emit_terminate r ~path_id:1 ~cause:Recorder.Max_length ~len:5
    ~dirty_lines:2;
  match Recorder.events r with
  | [ Recorder.Spawn { at = a1; _ }; Recorder.Terminate { at = a2; _ } ] ->
    Alcotest.(check int) "spawn at primary cycle" 40 a1;
    Alcotest.(check int) "terminate at spawn + path-local" 45 a2
  | _ -> Alcotest.fail "expected spawn + terminate"

(* --- cache squash/commit emission ---------------------------------------- *)

let test_cache_emits_squash_and_commit () =
  let r = Recorder.create () in
  let cache = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:16 in
  Cache.set_recorder cache r;
  for i = 0 to 3 do
    ignore
      (Cache.access_line cache (64 * i) ~owner:5 ~write:true ~allocate:true)
  done;
  let squashed = Cache.gang_invalidate cache ~owner:5 in
  for i = 0 to 1 do
    ignore
      (Cache.access_line cache (64 * i) ~owner:6 ~write:true ~allocate:true)
  done;
  let committed = Cache.commit_owner cache ~owner:6 in
  match Recorder.events r with
  | [ Recorder.Squash { owner = o1; lines = l1; _ };
      Recorder.Commit { owner = o2; lines = l2; _ } ] ->
    Alcotest.(check int) "squash owner" 5 o1;
    Alcotest.(check int) "squash lines" squashed l1;
    Alcotest.(check int) "commit owner" 6 o2;
    Alcotest.(check int) "commit lines" committed l2
  | evs ->
    Alcotest.fail
      (Printf.sprintf "expected squash + commit, got %d events"
         (List.length evs))

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

let traced_run ?(source = buggy_source) () =
  let compiled =
    Compile.compile ~options:{ Codegen.default_options with Codegen.detector = Codegen.Ccured }
      source
  in
  let recorder = Recorder.create () in
  let machine = Machine.create ~recorder compiled.Compile.program in
  let result = Engine.run machine in
  (compiled, machine, recorder, result)

let test_engine_trace_deterministic () =
  let _, _, r1, _ = traced_run () in
  let _, _, r2, _ = traced_run () in
  let d1 = Recorder.dump ~label:"run" r1 in
  let d2 = Recorder.dump ~label:"run" r2 in
  Alcotest.(check bool) "events recorded" true (List.length d1.Recorder.events > 0);
  Alcotest.(check string) "identical runs give identical JSONL"
    (Recorder.jsonl_of_dump d1) (Recorder.jsonl_of_dump d2);
  Alcotest.(check string) "identical Chrome traces"
    (Recorder.chrome_of_dump d1) (Recorder.chrome_of_dump d2)

let test_engine_trace_lifecycle () =
  let _, _, r, result = traced_run () in
  let events = Recorder.events r in
  let spawns =
    List.filter_map
      (function Recorder.Spawn { path_id; _ } -> Some path_id | _ -> None)
      events
  in
  let terms =
    List.filter_map
      (function Recorder.Terminate { path_id; _ } -> Some path_id | _ -> None)
      events
  in
  Alcotest.(check int) "one spawn event per engine spawn"
    result.Engine.spawns (List.length spawns);
  Alcotest.(check (list int)) "every spawned path terminates" spawns terms;
  (* Timestamps are non-decreasing per path pairing: a path's terminate
     never precedes its spawn. *)
  List.iter
    (function
      | Recorder.Terminate { at; path_id; _ } ->
        let spawn_at =
          List.find_map
            (function
              | Recorder.Spawn { at; path_id = p; _ } when p = path_id ->
                Some at
              | _ -> None)
            events
        in
        (match spawn_at with
         | Some s ->
           Alcotest.(check bool) "terminate not before spawn" true (at >= s)
         | None -> Alcotest.fail "terminate without spawn")
      | _ -> ())
    events

let test_bug_provenance_matches_reports () =
  let _, machine, r, _ = traced_run () in
  let reports = Report.entries machine.Machine.reports in
  Alcotest.(check bool) "the planted bug fires" true (List.length reports > 0);
  let bug_events =
    List.filter_map
      (function
        | Recorder.Bug_detected { site; origin; spawn_site; edge; pc; _ } ->
          Some (site, origin, spawn_site, edge, pc)
        | _ -> None)
      (Recorder.events r)
  in
  Alcotest.(check int) "one Bug_detected event per filed report"
    (List.length reports) (List.length bug_events);
  List.iter2
    (fun (e : Report.entry) (site, origin, spawn_site, edge, pc) ->
      Alcotest.(check int) "site" e.Report.site site;
      Alcotest.(check int) "pc" e.Report.pc pc;
      Alcotest.(check int) "spawn site" e.Report.spawn_br_pc spawn_site;
      Alcotest.(check int) "branch edge" e.Report.branch_edge edge;
      match e.Report.origin with
      | Report.Taken_path -> Alcotest.(check int) "taken origin" 0 origin
      | Report.Nt_path id -> Alcotest.(check int) "nt origin" id origin)
    reports bug_events;
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
  let _, _, r, _ = traced_run () in
  let dump = Recorder.dump ~label:"weird \"label\"\nwith newline" r in
  let jsonl = Recorder.jsonl_of_dump dump in
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
  (* The escaped label round-trips exactly. *)
  match Jsonu.parse (List.hd lines) with
  | Ok meta ->
    (match Jsonu.member "label" meta with
     | Some (Jsonu.Str l) ->
       Alcotest.(check string) "label round-trips" "weird \"label\"\nwith newline" l
     | _ -> Alcotest.fail "meta lacks label")
  | Error e -> Alcotest.fail e

let test_chrome_output_valid () =
  let _, _, r, result = traced_run () in
  let chrome = Recorder.chrome_of_dump (Recorder.dump ~label:"c" r) in
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

(* A run made through the experiment harness carries an enabled recorder
   exactly when the spec traces, and its trace lands in the context. *)
let test_spec_capture () =
  let run spec =
    let ctx = Exp_common.context ~spec ~out:ignore in
    let r = Exp_common.run_app ctx (Registry.find "schedule") in
    let traces, _, _ = Exp_common.collected ctx in
    (r, traces)
  in
  let r_plain, plain = run Run_spec.default in
  Alcotest.(check bool) "untraced run keeps the disabled recorder" false
    (Recorder.enabled r_plain.Exp_common.machine.Machine.recorder);
  Alcotest.(check int) "nothing captured untraced" 0 (List.length plain);
  let _, dumps = run { Run_spec.default with Run_spec.trace = true } in
  Alcotest.(check (list string)) "one labelled trace per run"
    [ "schedule/standard" ] (List.map fst dumps);
  (* save_dir writes deterministically named, parseable files *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "pexp_trace_test" in
  let files = Recorder.save_dir ~dir dumps in
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
    Alcotest.test_case "ring overflow semantics" `Quick test_ring_overflow;
    Alcotest.test_case "disabled recorder is inert" `Quick test_disabled_is_noop;
    Alcotest.test_case "base+local sim clock" `Quick test_clock_base_local;
    Alcotest.test_case "cache emits squash and commit" `Quick
      test_cache_emits_squash_and_commit;
    Alcotest.test_case "engine trace is deterministic" `Quick
      test_engine_trace_deterministic;
    Alcotest.test_case "spawn/terminate lifecycle" `Quick
      test_engine_trace_lifecycle;
    Alcotest.test_case "bug provenance matches reports" `Quick
      test_bug_provenance_matches_reports;
    Alcotest.test_case "JSONL lines all parse" `Quick
      test_jsonl_every_line_parses;
    Alcotest.test_case "Chrome trace is valid" `Quick test_chrome_output_valid;
    Alcotest.test_case "spec trace capture + save_dir" `Quick test_spec_capture;
  ]
