(* A run's NT-Path lifecycle trace, derived at run end from the engine's
   per-spawn records, its counter resets and the machine's report log.
   Nothing is recorded while the run executes: the records are the log,
   and this is one of its folds (telemetry and the observatory are the
   others). Timestamps are simulated cycles, never wall clock. *)

type event =
  | Spawn of { at : int; path_id : int; br_pc : int; edge : bool; entry_pc : int }
  | Terminate of {
      at : int;
      path_id : int;
      termination : Nt_path.termination;
      len : int;
      dirty_lines : int;
    }
  | Squash of { at : int; owner : int; lines : int }
  | Bug_detected of {
      at : int;
      site : int;
      origin : int;
      spawn_site : int;
      edge : int;
      pc : int;
    }
  | Counter_reset of { at : int; insns : int }

type t = { label : string; events : event list }

(* The run's order is three taken-path streams merged by position: NT-Path
   blocks (in spawn order, each owning a contiguous range of the report
   log), taken-path reports (the log entries between those ranges) and
   counter resets (each stamped with the spawns and reports before it).
   A reset goes out as soon as everything before it has; a block goes out
   when the log has reached its first report; otherwise the next log entry
   is a taken-path report. A path's own events are timed at its spawn
   cycle plus its own cycles. *)
let of_run ?(label = "") (result : Engine.result) reports =
  let reports = Array.of_list reports in
  let events = ref [] in
  let emit e = events := e :: !events in
  let bug ~base (e : Report.entry) =
    emit
      (Bug_detected
         {
           at = base + e.Report.cycle;
           site = e.Report.site;
           origin =
             (match e.Report.origin with
              | Report.Taken_path -> 0
              | Report.Nt_path id -> id);
           spawn_site = e.Report.spawn_br_pc;
           edge = e.Report.branch_edge;
           pc = e.Report.pc;
         })
  in
  let block (r : Nt_path.record) =
    let base = r.Nt_path.spawn_cycle and path_id = r.Nt_path.path_id in
    emit
      (Spawn
         {
           at = base;
           path_id;
           br_pc = r.Nt_path.spawn_br_pc;
           edge = r.Nt_path.forced_direction;
           entry_pc = r.Nt_path.entry_pc;
         });
    let first = r.Nt_path.first_report in
    for i = first to first + r.Nt_path.reports - 1 do
      bug ~base reports.(i)
    done;
    let at = base + r.Nt_path.cycles and lines = r.Nt_path.squashed_lines in
    if lines > 0 then emit (Squash { at; owner = path_id; lines });
    emit
      (Terminate
         {
           at;
           path_id;
           termination = r.Nt_path.termination;
           len = r.Nt_path.insns;
           dirty_lines = lines;
         })
  in
  let rec merge ~spawned ~filed records resets =
    match (records, resets) with
    | _, (c : Engine.counter_reset) :: resets
      when c.Engine.reset_spawns <= spawned && c.Engine.reset_reports <= filed ->
      emit
        (Counter_reset
           { at = c.Engine.reset_cycle; insns = c.Engine.reset_insns });
      merge ~spawned ~filed records resets
    | (r : Nt_path.record) :: records, _ when r.Nt_path.first_report <= filed ->
      block r;
      merge ~spawned:(spawned + 1) ~filed:(filed + r.Nt_path.reports) records
        resets
    | _ when filed < Array.length reports ->
      bug ~base:0 reports.(filed);
      merge ~spawned ~filed:(filed + 1) records resets
    | [], [] -> ()
    | _ -> invalid_arg "Trace.of_run: records and reports of different runs"
  in
  merge ~spawned:0 ~filed:0 result.Engine.nt_records result.Engine.counter_resets;
  { label; events = List.rev !events }

(* ---- JSONL exporter ----------------------------------------------------- *)

let jsonl_schema_version = 2

let event_json ev =
  let open Jsonu in
  let int = string_of_int in
  match ev with
  | Spawn { at; path_id; br_pc; edge; entry_pc } ->
    jobj
      [
        ("type", jstr "spawn");
        ("at", int at);
        ("path", int path_id);
        ("br_pc", int br_pc);
        ("edge", int (if edge then 1 else 0));
        ("entry", int entry_pc);
      ]
  | Terminate { at; path_id; termination; len; dirty_lines } ->
    jobj
      [
        ("type", jstr "terminate");
        ("at", int at);
        ("path", int path_id);
        ("cause", jstr (Nt_path.termination_name termination));
        ("len", int len);
        ("dirty_lines", int dirty_lines);
      ]
  | Squash { at; owner; lines } ->
    jobj
      [
        ("type", jstr "squash");
        ("at", int at);
        ("owner", int owner);
        ("lines", int lines);
      ]
  | Bug_detected { at; site; origin; spawn_site; edge; pc } ->
    jobj
      [
        ("type", jstr "bug");
        ("at", int at);
        ("site", int site);
        ("origin", int origin);
        ("spawn_site", int spawn_site);
        ("edge", int edge);
        ("pc", int pc);
      ]
  | Counter_reset { at; insns } ->
    jobj
      [ ("type", jstr "counter_reset"); ("at", int at); ("insns", int insns) ]

let to_jsonl t =
  let buf = Buffer.create (256 + (64 * List.length t.events)) in
  Buffer.add_string buf
    (Jsonu.jobj
       [
         ("type", Jsonu.jstr "meta");
         ("schema", string_of_int jsonl_schema_version);
         ("label", Jsonu.jstr t.label);
         ("clock", Jsonu.jstr "sim-cycles");
         ("events", string_of_int (List.length t.events));
       ]);
  Buffer.add_char buf '\n';
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_json ev);
      Buffer.add_char buf '\n')
    t.events;
  Buffer.contents buf

(* ---- Chrome trace-event exporter (Perfetto / chrome://tracing) ---------- *)

(* An NT-Path's block becomes one "X" (complete) slice on tid = path id,
   written when its Terminate closes it; everything else is an instant.
   Blocks are contiguous, so the open spawn is always the last one seen.
   Timestamps are sim cycles written as microseconds. *)
let to_chrome t =
  let open Jsonu in
  let entry ?(extra = []) ~name ~ph ~ts ~tid fields =
    jobj
      ([
         ("name", jstr name);
         ("ph", jstr ph);
         ("ts", string_of_int ts);
         ("pid", "0");
         ("tid", string_of_int tid);
       ]
      @ extra
      @ [ ("args", jobj fields) ])
  in
  let spawned = ref None in
  let items =
    List.filter_map
      (function
        | Spawn { at; br_pc; edge; entry_pc; _ } ->
          spawned := Some (at, br_pc, edge, entry_pc);
          None
        | Terminate { at; path_id; termination; len; dirty_lines } ->
          let t0, br_pc, edge, entry_pc =
            match !spawned with
            | Some s -> s
            | None -> invalid_arg "Trace.to_chrome: terminate without spawn"
          in
          Some
            (entry
               ~name:(Printf.sprintf "nt-path@%d" br_pc)
               ~ph:"X" ~ts:t0 ~tid:path_id
               ~extra:[ ("dur", string_of_int (max 0 (at - t0))) ]
               [
                 ("cause", jstr (Nt_path.termination_name termination));
                 ("len", string_of_int len);
                 ("dirty_lines", string_of_int dirty_lines);
                 ("br_pc", string_of_int br_pc);
                 ("edge", string_of_int (if edge then 1 else 0));
                 ("entry", string_of_int entry_pc);
               ])
        | Squash { at; owner; lines } ->
          Some
            (entry ~name:"squash" ~ph:"i" ~ts:at ~tid:owner
               [ ("lines", string_of_int lines) ])
        | Bug_detected { at; site; origin; spawn_site; edge; pc } ->
          Some
            (entry
               ~name:(Printf.sprintf "bug site %d" site)
               ~ph:"i" ~ts:at ~tid:origin
               ~extra:[ ("s", jstr "p") ]
               [
                 ("origin", string_of_int origin);
                 ("spawn_site", string_of_int spawn_site);
                 ("edge", string_of_int edge);
                 ("pc", string_of_int pc);
               ])
        | Counter_reset { at; insns } ->
          Some
            (entry ~name:"counter-reset" ~ph:"i" ~ts:at ~tid:0
               [ ("insns", string_of_int insns) ]))
      t.events
  in
  jobj
    [
      ("traceEvents", jarr items);
      ("displayTimeUnit", jstr "ms");
      ( "otherData",
        jobj [ ("clock", jstr "sim-cycles"); ("label", jstr t.label) ] );
    ]

(* ---- Directory export --------------------------------------------------- *)

let save_dir ~dir traces =
  Artifact_dir.save ~dir ~prefix:"trace" ~ext:"jsonl" ~newline:false traces
