(* trace_check — validate NT-Path JSONL traces and Coverage Observatory
   JSON snapshots.

   Usage: trace_check FILE.jsonl ...     (validate each trace file)
          trace_check FILE.json ...      (validate each obs snapshot)
          trace_check DIR                (validate every *.jsonl / *.json
                                          inside)

   Traces (schema 2): every line must parse as a complete JSON object; the
   first line must be a meta record with the known schema version and an
   "events" count; every following line must be an event with a recognised
   "type", and there must be exactly "events" of them. A trace is derived
   from the run's per-spawn records, so it is always complete: the meta
   line carries no drop accounting.

   Obs snapshots: the document must carry the known schema version, every
   required section, only recognised frontier causes, and internally
   consistent counts (frontier length = uncovered edge count = cause total).

   Exit status is non-zero on any failure, so CI can gate on captured
   artifacts being well-formed. *)

let known_types = [ "spawn"; "terminate"; "squash"; "bug"; "counter_reset" ]

let fail file line msg =
  Printf.eprintf "%s:%d: %s\n" file line msg;
  false

(* [events] receives the meta line's event count. *)
let check_line file lineno ~first ~events line =
  match Jsonu.parse line with
  | Error msg -> fail file lineno ("invalid JSON: " ^ msg)
  | Ok v ->
    (match Jsonu.member "type" v with
     | Some (Jsonu.Str ty) ->
       if first then
         if ty <> "meta" then
           fail file lineno ("first line must be meta, got " ^ ty)
         else begin
           match (Jsonu.member "schema" v, Jsonu.member "events" v) with
           | Some (Jsonu.Num n), Some (Jsonu.Num e)
             when int_of_float n = Trace.jsonl_schema_version ->
             events := int_of_float e;
             true
           | _ ->
             fail file lineno
               (Printf.sprintf
                  "meta line must carry schema %d and an events count"
                  Trace.jsonl_schema_version)
         end
       else if List.mem ty known_types then true
       else fail file lineno ("unknown event type " ^ ty)
     | Some _ -> fail file lineno "\"type\" must be a string"
     | None -> fail file lineno "missing \"type\" field")

let check_file file =
  let ic = open_in file in
  let ok = ref true in
  let lineno = ref 0 in
  let events = ref (-1) in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if not (check_line file !lineno ~first:(!lineno = 1) ~events line) then
         ok := false
     done
   with End_of_file -> ());
  close_in ic;
  if !lineno = 0 then ok := fail file 0 "empty trace"
  else if !ok && !events <> !lineno - 1 then
    ok :=
      fail file !lineno
        (Printf.sprintf "meta line counts %d events, the file has %d" !events
           (!lineno - 1));
  if !ok then
    Printf.printf "%s: ok (%d lines)\n" file !lineno;
  !ok

(* ---- Obs snapshot validation -------------------------------------------- *)

(* Fixed causes, plus the [nt-terminated:<termination>] family. *)
let known_causes =
  [ "site-unreached"; "spawn-budget"; "no-spawning"; "spawn-threshold";
    "nt-unattributed" ]

let known_cause c =
  List.mem c known_causes
  ||
  let pre = "nt-terminated:" in
  String.length c > String.length pre
  && String.sub c 0 (String.length pre) = pre

let int_member name v =
  match Jsonu.member name v with
  | Some (Jsonu.Num n) when Float.is_integer n -> Some (int_of_float n)
  | _ -> None

let check_obs_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let err msg = fail file 1 msg in
  match Jsonu.parse (String.trim text) with
  | Error msg -> err ("invalid JSON: " ^ msg)
  | Ok v ->
    let ok = ref true in
    let require b msg = if not b then ok := err msg in
    require
      (int_member "schema" v = Some Obs.schema_version)
      (Printf.sprintf "snapshot must carry schema %d" Obs.schema_version);
    List.iter
      (fun section ->
        require (Jsonu.member section v <> None) ("missing section " ^ section))
      [ "label"; "mode"; "outcome"; "edges"; "frontier"; "frontier_causes";
        "prime_paths"; "spawns"; "tiers"; "cache"; "btb" ];
    (match Jsonu.member "edges" v, Jsonu.member "frontier" v with
     | Some edges, Some (Jsonu.Arr frontier) ->
       (match int_member "universe" edges, int_member "combined" edges with
        | Some universe, Some combined ->
          require
            (universe - combined = List.length frontier)
            (Printf.sprintf
               "frontier length %d does not match universe %d - combined %d"
               (List.length frontier) universe combined)
        | _ -> ok := err "edges must carry integer universe/combined");
       List.iter
         (fun entry ->
           List.iter
             (fun f ->
               require (Jsonu.member f entry <> None)
                 ("frontier entry missing " ^ f))
             [ "pc"; "dir"; "line"; "func"; "cause" ];
           match Jsonu.member "cause" entry with
           | Some (Jsonu.Str c) ->
             require (known_cause c) ("unknown frontier cause " ^ c)
           | _ -> ok := err "frontier cause must be a string")
         frontier;
       (match Jsonu.member "frontier_causes" v with
        | Some (Jsonu.Obj causes) ->
          List.iter
            (fun (c, _) ->
              require (known_cause c) ("unknown frontier cause " ^ c))
            causes;
          let total =
            List.fold_left
              (fun acc (_, n) ->
                match n with Jsonu.Num n -> acc + int_of_float n | _ -> acc)
              0 causes
          in
          require
            (total = List.length frontier)
            (Printf.sprintf "cause total %d does not match frontier length %d"
               total (List.length frontier))
        | _ -> ok := err "frontier_causes must be an object")
     | _ -> ok := err "edges/frontier malformed");
    (match Jsonu.member "prime_paths" v with
     | Some pp ->
       (match int_member "enumerated" pp, int_member "covered" pp with
        | Some e, Some c ->
          require (0 <= c && c <= e)
            (Printf.sprintf "prime-path covered %d out of range 0..%d" c e)
        | _ -> ok := err "prime_paths must carry integer enumerated/covered")
     | None -> ());
    if !ok then Printf.printf "%s: ok (obs snapshot)\n" file;
    !ok

let artifact_files_of_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".jsonl" || Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then begin
    prerr_endline
      "usage: trace_check FILE.jsonl|FILE.json ... | trace_check DIR";
    exit 2
  end;
  let files =
    List.concat_map
      (fun a ->
        if Sys.is_directory a then
          match artifact_files_of_dir a with
          | [] ->
            Printf.eprintf "%s: no .jsonl or .json files\n" a;
            exit 1
          | fs -> fs
        else [ a ])
      args
  in
  let ok =
    List.for_all
      (fun f ->
        if Filename.check_suffix f ".json" then check_obs_file f
        else check_file f)
      files
  in
  exit (if ok then 0 else 1)
