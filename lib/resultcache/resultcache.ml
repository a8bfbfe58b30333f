(* Content-addressed whole-run result cache (DESIGN.md §16).

   Two tiers: a bounded in-process table (tier 1) over an on-disk
   content-addressed store (tier 2). Entries are keyed by the MD5 of a
   canonical key text — a sorted-key JSON object naming every component of
   the run fingerprint — and hold a checksummed manifest plus the artifact
   bytes. Loads verify everything (manifest shape, full key text, sizes,
   per-artifact MD5s) and degrade any failure to a counted miss: a corrupt
   cache can cost time, never correctness. *)

let schema_version = 1
let manifest_schema_version = 1

let digest_hex s = Digest.to_hex (Digest.string s)

(* Compiled program images are plain data (no closures, no custom blocks),
   so [Marshal] is total and deterministic on them. *)
let digest_value v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let build_id_memo = ref None

let build_id () =
  match !build_id_memo with
  | Some id -> id
  | None ->
    let id =
      try Digest.to_hex (Digest.file Sys.executable_name)
      with Sys_error _ -> "unknown-build"
    in
    build_id_memo := Some id;
    id

(* ---- Keys ---------------------------------------------------------------- *)

type key = { text : string; hash : string }

let key parts =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) parts in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then invalid_arg ("Resultcache.key: duplicate part " ^ a);
      check rest
    | _ -> ()
  in
  check sorted;
  let text =
    Jsonu.jobj (List.map (fun (name, v) -> (name, Jsonu.jstr v)) sorted)
  in
  { text; hash = digest_hex text }

let key_text k = k.text
let key_hash k = k.hash

(* ---- Bundles and manifests ----------------------------------------------- *)

type bundle = { stdout : string; artifacts : (string * string) list }

(* Artifact contents live in files named [a0000], [a0001], ... next to the
   manifest; logical names (arbitrary strings) live only inside the
   manifest, so no label ever needs filesystem-sanitizing. *)
let artifact_file i = Printf.sprintf "a%04d" i

let manifest_of_bundle key bundle =
  let entry name file content =
    Jsonu.jobj
      [
        ("bytes", string_of_int (String.length content));
        ("file", Jsonu.jstr file);
        ("md5", Jsonu.jstr (digest_hex content));
        ("name", Jsonu.jstr name);
      ]
  in
  Jsonu.jobj
    [
      ( "artifacts",
        Jsonu.jarr
          (List.mapi
             (fun i (name, content) -> entry name (artifact_file i) content)
             bundle.artifacts) );
      ("key", Jsonu.jstr key.text);
      ("schema", string_of_int manifest_schema_version);
      ( "stdout",
        Jsonu.jobj
          [
            ("bytes", string_of_int (String.length bundle.stdout));
            ("md5", Jsonu.jstr (digest_hex bundle.stdout));
          ] );
    ]
  ^ "\n"

(* ---- Store --------------------------------------------------------------- *)

type t = {
  dir : string;
  memory_capacity : int;
  max_entries : int;
  memory : (string, bundle) Hashtbl.t;  (* key hash -> bundle *)
  order : string Queue.t;  (* tier-1 FIFO eviction order *)
  telemetry : Telemetry.t;
  mutex : Mutex.t;
  mutable tmp_counter : int;
}

let counter_names =
  [
    "resultcache.hit_mem"; "resultcache.hit_disk"; "resultcache.miss";
    "resultcache.store"; "resultcache.corrupt"; "resultcache.evict";
    "resultcache.bytes_read"; "resultcache.bytes_written";
  ]

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let create ?(memory_capacity = 64) ?(max_entries = 256) ~dir () =
  if memory_capacity < 1 then
    invalid_arg "Resultcache.create: memory_capacity must be positive";
  if max_entries < 1 then
    invalid_arg "Resultcache.create: max_entries must be positive";
  ensure_dir dir;
  {
    dir;
    memory_capacity;
    max_entries;
    memory = Hashtbl.create 64;
    order = Queue.create ();
    telemetry = Telemetry.create ~label:"resultcache" ();
    mutex = Mutex.create ();
    tmp_counter = 0;
  }

let dir t = t.dir

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
    Mutex.unlock t.mutex;
    v
  | exception e ->
    Mutex.unlock t.mutex;
    raise e

let count t name n = Telemetry.count t.telemetry name n
let bump t name = count t name 1

(* ---- Disk primitives ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let entry_dir t key = Filename.concat t.dir key.hash

(* An entry directory is anything holding a manifest — housekeeping (temp
   dirs mid-rename, stray files) is never counted or evicted. *)
let entries t =
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun name ->
         let p = Filename.concat t.dir name in
         Sys.is_directory p
         && Sys.file_exists (Filename.concat p "manifest.json"))

(* ---- Manifest parsing (shared Jsonu parser) ------------------------------- *)

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

let jint = function
  | Jsonu.Num n when Float.is_integer n -> int_of_float n
  | _ -> corrupt "expected integer"

let jstr_of = function Jsonu.Str s -> s | _ -> corrupt "expected string"

let member name v =
  match Jsonu.member name v with
  | Some m -> m
  | None -> corrupt ("manifest missing " ^ name)

(* Parse and fully verify one on-disk entry against [key]; raises [Corrupt]
   on any defect. Returns the bundle and the bytes read. *)
let load_entry t key =
  let dir = entry_dir t key in
  let manifest_text = read_file (Filename.concat dir "manifest.json") in
  let v =
    match Jsonu.parse (String.trim manifest_text) with
    | Ok v -> v
    | Error msg -> corrupt ("manifest parse: " ^ msg)
  in
  if jint (member "schema" v) <> manifest_schema_version then
    corrupt "manifest schema mismatch";
  (* The full canonical key text is re-checked, not just its hash, so a
     hash collision (or a hand-copied entry) can never alias. *)
  if jstr_of (member "key" v) <> key.text then corrupt "key text mismatch";
  let checked_read file ~bytes ~md5 =
    let path = Filename.concat dir file in
    let content = try read_file path with Sys_error _ -> corrupt "unreadable" in
    if String.length content <> bytes then corrupt (file ^ ": size mismatch");
    if digest_hex content <> md5 then corrupt (file ^ ": checksum mismatch");
    content
  in
  let so = member "stdout" v in
  let stdout =
    checked_read "stdout"
      ~bytes:(jint (member "bytes" so))
      ~md5:(jstr_of (member "md5" so))
  in
  let artifacts =
    match member "artifacts" v with
    | Jsonu.Arr entries ->
      List.map
        (fun e ->
          ( jstr_of (member "name" e),
            checked_read
              (jstr_of (member "file" e))
              ~bytes:(jint (member "bytes" e))
              ~md5:(jstr_of (member "md5" e)) ))
        entries
    | _ -> corrupt "artifacts must be an array"
  in
  let bytes =
    String.length manifest_text
    + String.length stdout
    + List.fold_left (fun acc (_, c) -> acc + String.length c) 0 artifacts
  in
  ({ stdout; artifacts }, bytes)

(* ---- Tier 1 -------------------------------------------------------------- *)

let memory_insert t key bundle =
  if not (Hashtbl.mem t.memory key.hash) then begin
    while Queue.length t.order >= t.memory_capacity do
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.memory oldest;
      bump t "resultcache.evict"
    done;
    Hashtbl.replace t.memory key.hash bundle;
    Queue.push key.hash t.order
  end
  else Hashtbl.replace t.memory key.hash bundle

(* ---- Public operations ---------------------------------------------------- *)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.memory key.hash with
      | Some bundle ->
        bump t "resultcache.hit_mem";
        Some bundle
      | None ->
        if not (Sys.file_exists (entry_dir t key)) then begin
          bump t "resultcache.miss";
          None
        end
        else begin
          match load_entry t key with
          | bundle, bytes ->
            bump t "resultcache.hit_disk";
            count t "resultcache.bytes_read" bytes;
            memory_insert t key bundle;
            Some bundle
          | exception (Corrupt _ | Sys_error _ | Unix.Unix_error _) ->
            (* A torn, truncated or hand-edited entry: count it, treat it
               as a miss. The next [store] replaces it wholesale. *)
            bump t "resultcache.corrupt";
            bump t "resultcache.miss";
            None
        end)

(* Evict oldest-by-mtime entries until the store is back under its bound.
   Wall-clock mtimes order housekeeping only; they never touch keys or
   artifact bytes, so determinism is unaffected. *)
let prune_disk t =
  let es = entries t in
  let over = List.length es - t.max_entries in
  if over > 0 then begin
    let aged =
      List.map
        (fun name ->
          let p = Filename.concat t.dir name in
          let mtime =
            try (Unix.stat (Filename.concat p "manifest.json")).Unix.st_mtime
            with Unix.Unix_error _ -> 0.0
          in
          (mtime, name))
        es
      |> List.sort compare
    in
    List.iteri
      (fun i (_, name) ->
        if i < over then begin
          (try remove_tree (Filename.concat t.dir name)
           with Sys_error _ | Unix.Unix_error _ -> ());
          bump t "resultcache.evict"
        end)
      aged
  end

let store t key bundle =
  locked t (fun () ->
      memory_insert t key bundle;
      let tmp =
        t.tmp_counter <- t.tmp_counter + 1;
        Filename.concat t.dir
          (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ()) t.tmp_counter)
      in
      (try
         ensure_dir tmp;
         let manifest = manifest_of_bundle key bundle in
         write_file (Filename.concat tmp "stdout") bundle.stdout;
         List.iteri
           (fun i (_, content) ->
             write_file (Filename.concat tmp (artifact_file i)) content)
           bundle.artifacts;
         (* The manifest lands last: a crash mid-write leaves a manifestless
            temp directory, which [entries] and [find] both ignore. *)
         write_file (Filename.concat tmp "manifest.json") manifest;
         let dst = entry_dir t key in
         if Sys.file_exists dst then remove_tree dst;
         Sys.rename tmp dst;
         bump t "resultcache.store";
         count t "resultcache.bytes_written"
           (String.length manifest
           + String.length bundle.stdout
           + List.fold_left
               (fun acc (_, c) -> acc + String.length c)
               0 bundle.artifacts);
         prune_disk t
       with Sys_error _ | Unix.Unix_error _ ->
         (* Disk store is best-effort (read-only cache dir, full disk, a
            racing writer): the run already succeeded, and tier 1 holds the
            bundle for this process. *)
         (try if Sys.file_exists tmp then remove_tree tmp
          with Sys_error _ | Unix.Unix_error _ -> ())))

let clear_memory t =
  locked t (fun () ->
      Hashtbl.reset t.memory;
      Queue.clear t.order)

let stat t name = locked t (fun () -> Telemetry.counter t.telemetry name)

let stats t =
  locked t (fun () ->
      List.map (fun n -> (n, Telemetry.counter t.telemetry n)) counter_names
      |> List.sort compare)

let stats_json t = locked t (fun () -> Telemetry.to_json t.telemetry)

let hit_rate t =
  locked t (fun () ->
      let c = Telemetry.counter t.telemetry in
      let hits = c "resultcache.hit_mem" + c "resultcache.hit_disk" in
      let total = hits + c "resultcache.miss" in
      if total = 0 then 0.0 else float_of_int hits /. float_of_int total)

let reset_stats t = locked t (fun () -> Telemetry.reset t.telemetry)
