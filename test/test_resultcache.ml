(* Result-cache tests (DESIGN.md §16): key canonicalization, store→load
   round-trips (QCheck property plus directed cases), corruption handling
   (every defect is a counted miss, never a crash, never a wrong result),
   tier bounds (memory FIFO, on-disk eviction), the Pe_config fingerprint's
   field coverage, the bounded compile memo, and a cold/warm run of the
   real experiment runner through the cache. *)

let qtest = QCheck_alcotest.to_alcotest

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pexp-test-cache-%d-%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then ()
    else Unix.mkdir dir 0o755;
    dir

let bundle_eq (a : Resultcache.bundle) (b : Resultcache.bundle) =
  a.Resultcache.stdout = b.Resultcache.stdout
  && a.Resultcache.artifacts = b.Resultcache.artifacts

(* ---- Keys ---------------------------------------------------------------- *)

let test_key_canonical () =
  let a = Resultcache.key [ ("x", "1"); ("y", "2") ] in
  let b = Resultcache.key [ ("y", "2"); ("x", "1") ] in
  Alcotest.(check string)
    "order-independent" (Resultcache.key_hash a) (Resultcache.key_hash b);
  let c = Resultcache.key [ ("x", "1"); ("y", "3") ] in
  Alcotest.(check bool)
    "value change rehashes" false
    (Resultcache.key_hash a = Resultcache.key_hash c);
  let d = Resultcache.key [ ("x", "1") ] in
  Alcotest.(check bool)
    "component set matters" false
    (Resultcache.key_hash a = Resultcache.key_hash d);
  (* splitting the same bytes across names differently must not alias *)
  let e = Resultcache.key [ ("x", "12"); ("y", "") ] in
  Alcotest.(check bool)
    "name/value boundary is canonical" false
    (Resultcache.key_hash a = Resultcache.key_hash e);
  Alcotest.check_raises "duplicate part"
    (Invalid_argument "Resultcache.key: duplicate part x") (fun () ->
      ignore (Resultcache.key [ ("x", "1"); ("x", "2") ]))

(* ---- Round-trips --------------------------------------------------------- *)

let test_roundtrip_directed () =
  let dir = tmp_dir () in
  let cache = Resultcache.create ~dir () in
  let key = Resultcache.key [ ("kind", "test"); ("id", "directed") ] in
  let bundle =
    {
      Resultcache.stdout = "report line\nwith \"quotes\" and \xc3\xa9\n";
      artifacts =
        [ ("trace:a/b", "{\"t\":1}\n"); ("obs:a/b", ""); ("trace:a/b", "dup") ];
    }
  in
  Alcotest.(check bool) "empty probe misses" true
    (Resultcache.find cache key = None);
  Resultcache.store cache key bundle;
  (match Resultcache.find cache key with
   | Some b -> Alcotest.(check bool) "memory round-trip" true (bundle_eq bundle b)
   | None -> Alcotest.fail "expected a memory hit");
  (* a fresh instance over the same directory exercises the disk tier *)
  let cache2 = Resultcache.create ~dir () in
  (match Resultcache.find cache2 key with
   | Some b -> Alcotest.(check bool) "disk round-trip" true (bundle_eq bundle b)
   | None -> Alcotest.fail "expected a disk hit");
  Alcotest.(check int) "disk hit counted" 1
    (Resultcache.stat cache2 "resultcache.hit_disk");
  (* the disk hit promoted the bundle into tier 1 *)
  ignore (Resultcache.find cache2 key);
  Alcotest.(check int) "promotion" 1
    (Resultcache.stat cache2 "resultcache.hit_mem")

let content_gen =
  QCheck.Gen.(string_size ~gen:(int_range 0 255 >|= Char.chr) (int_bound 200))

let bundle_gen =
  QCheck.Gen.(
    map2
      (fun stdout artifacts -> { Resultcache.stdout; artifacts })
      content_gen
      (list_size (int_bound 5)
         (pair (string_size ~gen:printable (int_bound 20)) content_gen)))

let bundle_arb =
  QCheck.make
    ~print:(fun b ->
      Printf.sprintf "stdout=%S artifacts=%d" b.Resultcache.stdout
        (List.length b.Resultcache.artifacts))
    bundle_gen

let roundtrip_prop =
  let dir = tmp_dir () in
  let counter = ref 0 in
  QCheck.Test.make ~name:"store→load is byte-for-byte" ~count:100 bundle_arb
    (fun bundle ->
      incr counter;
      let key =
        Resultcache.key
          [ ("kind", "prop"); ("n", string_of_int !counter) ]
      in
      let cache = Resultcache.create ~dir () in
      Resultcache.store cache key bundle;
      (* force the disk path: the memory tier is dropped first *)
      Resultcache.clear_memory cache;
      match Resultcache.find cache key with
      | Some b -> bundle_eq bundle b
      | None -> false)

(* ---- Corruption ---------------------------------------------------------- *)

let store_one dir =
  let cache = Resultcache.create ~dir () in
  let key = Resultcache.key [ ("kind", "corrupt-test") ] in
  let bundle =
    { Resultcache.stdout = "hello world\n"; artifacts = [ ("a", "payload") ] }
  in
  Resultcache.store cache key bundle;
  let entry = Filename.concat dir (Resultcache.key_hash key) in
  (key, entry)

(* After [damage entry_dir] runs, the probe must be a counted miss — and a
   fresh store must repair the entry. *)
let check_corruption name damage () =
  let dir = tmp_dir () in
  let key, entry = store_one dir in
  damage entry;
  let cache = Resultcache.create ~dir () in
  Alcotest.(check bool) (name ^ " misses") true
    (Resultcache.find cache key = None);
  Alcotest.(check int) (name ^ " counted corrupt") 1
    (Resultcache.stat cache "resultcache.corrupt");
  Alcotest.(check int) (name ^ " counted miss") 1
    (Resultcache.stat cache "resultcache.miss");
  (* the entry is replaceable in place *)
  let bundle = { Resultcache.stdout = "repaired"; artifacts = [] } in
  Resultcache.store cache key bundle;
  Resultcache.clear_memory cache;
  match Resultcache.find cache key with
  | Some b -> Alcotest.(check string) (name ^ " repaired") "repaired" b.Resultcache.stdout
  | None -> Alcotest.fail "expected the repaired entry"

let append_byte path =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_char oc 'X';
  close_out oc

let truncate_file path =
  let content =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic - 1) in
    close_in ic;
    s
  in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let test_corrupt_stdout =
  check_corruption "flipped stdout" (fun e ->
      append_byte (Filename.concat e "stdout"))

let test_truncated_artifact =
  check_corruption "truncated artifact" (fun e ->
      truncate_file (Filename.concat e "a0000"))

let test_missing_artifact =
  check_corruption "missing artifact" (fun e ->
      Sys.remove (Filename.concat e "a0000"))

let test_garbage_manifest =
  check_corruption "garbage manifest" (fun e ->
      let oc = open_out (Filename.concat e "manifest.json") in
      output_string oc "{not json";
      close_out oc)

let test_key_text_mismatch () =
  (* an entry renamed onto another key's hash must be rejected by the full
     key-text check, not served *)
  let dir = tmp_dir () in
  let key, entry = store_one dir in
  ignore key;
  let other = Resultcache.key [ ("kind", "some-other-key") ] in
  Sys.rename entry (Filename.concat dir (Resultcache.key_hash other));
  let cache = Resultcache.create ~dir () in
  Alcotest.(check bool) "aliased entry misses" true
    (Resultcache.find cache other = None);
  Alcotest.(check int) "counted corrupt" 1
    (Resultcache.stat cache "resultcache.corrupt")

let test_missing_manifest () =
  (* a manifestless directory (a crashed mid-write temp) is a plain miss,
     not a corruption *)
  let dir = tmp_dir () in
  let key, entry = store_one dir in
  Sys.remove (Filename.concat entry "manifest.json")
  ;
  let cache = Resultcache.create ~dir () in
  ignore (Resultcache.find cache key);
  Alcotest.(check int) "still a probe miss" 1
    (Resultcache.stat cache "resultcache.miss")

(* ---- Tier bounds --------------------------------------------------------- *)

let test_memory_bound () =
  let dir = tmp_dir () in
  let cache = Resultcache.create ~memory_capacity:2 ~dir () in
  let key i = Resultcache.key [ ("n", string_of_int i) ] in
  let bundle i =
    { Resultcache.stdout = string_of_int i; artifacts = [] }
  in
  for i = 1 to 4 do
    Resultcache.store cache (key i) (bundle i)
  done;
  Alcotest.(check int) "fifo evictions" 2
    (Resultcache.stat cache "resultcache.evict");
  (* 1 and 2 fell out of tier 1 but remain on disk *)
  ignore (Resultcache.find cache (key 1));
  Alcotest.(check int) "old entry served from disk" 1
    (Resultcache.stat cache "resultcache.hit_disk");
  ignore (Resultcache.find cache (key 4));
  Alcotest.(check int) "new entry served from memory" 1
    (Resultcache.stat cache "resultcache.hit_mem")

let entry_count dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun name ->
         Sys.is_directory (Filename.concat dir name)
         && Sys.file_exists
              (Filename.concat (Filename.concat dir name) "manifest.json"))
  |> List.length

let test_disk_bound () =
  let dir = tmp_dir () in
  let cache = Resultcache.create ~max_entries:3 ~dir () in
  for i = 1 to 7 do
    Resultcache.store cache
      (Resultcache.key [ ("n", string_of_int i) ])
      { Resultcache.stdout = string_of_int i; artifacts = [] }
  done;
  Alcotest.(check int) "disk store stays bounded" 3 (entry_count dir)

let test_hit_rate_and_reset () =
  let dir = tmp_dir () in
  let cache = Resultcache.create ~dir () in
  let key = Resultcache.key [ ("k", "hit-rate") ] in
  ignore (Resultcache.find cache key);
  Resultcache.store cache key { Resultcache.stdout = ""; artifacts = [] };
  ignore (Resultcache.find cache key);
  Alcotest.(check (float 1e-9)) "one hit one miss" 0.5
    (Resultcache.hit_rate cache);
  Resultcache.reset_stats cache;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Resultcache.hit_rate cache);
  ignore (Resultcache.find cache key);
  Alcotest.(check (float 1e-9)) "clean window" 1.0
    (Resultcache.hit_rate cache)

(* ---- Pe_config fingerprint ----------------------------------------------- *)

(* Every field must feed the fingerprint: mutate each one in turn and
   demand a different hash. A new field added to Pe_config.t without a
   fingerprint update fails to compile (the destructuring bind in
   [fingerprint] is exhaustive and warning 9 is fatal), and this test
   pins the complement — nothing listed is ignored. *)
let test_fingerprint_fields () =
  let base = Pe_config.default in
  let fp = Pe_config.fingerprint in
  let mutants =
    [
      ("mode", { base with Pe_config.mode = Pe_config.Cmp });
      ( "nt_counter_threshold",
        { base with Pe_config.nt_counter_threshold =
            base.Pe_config.nt_counter_threshold + 1 } );
      ( "max_nt_path_length",
        { base with Pe_config.max_nt_path_length =
            base.Pe_config.max_nt_path_length + 1 } );
      ( "max_num_nt_paths",
        { base with Pe_config.max_num_nt_paths =
            base.Pe_config.max_num_nt_paths + 1 } );
      ( "counter_reset_interval",
        { base with Pe_config.counter_reset_interval =
            base.Pe_config.counter_reset_interval + 1 } );
      ("fixing", { base with Pe_config.fixing = not base.Pe_config.fixing });
      ( "follow_nontaken_in_nt",
        { base with Pe_config.follow_nontaken_in_nt =
            not base.Pe_config.follow_nontaken_in_nt } );
      ( "spawn_everywhere",
        { base with Pe_config.spawn_everywhere =
            not base.Pe_config.spawn_everywhere } );
      ( "sandbox_syscalls",
        { base with Pe_config.sandbox_syscalls =
            not base.Pe_config.sandbox_syscalls } );
      ( "random_spawn_chance",
        { base with Pe_config.random_spawn_chance =
            base.Pe_config.random_spawn_chance +. 0.125 } );
      ( "random_seed",
        { base with Pe_config.random_seed = base.Pe_config.random_seed + 1 }
      );
      ( "profiled_fixing",
        { base with Pe_config.profiled_fixing =
            not base.Pe_config.profiled_fixing } );
      ( "selective",
        { base with Pe_config.selective = not base.Pe_config.selective } );
    ]
  in
  Alcotest.(check string) "stable" (fp base) (fp base);
  List.iter
    (fun (field, mutant) ->
      Alcotest.(check bool)
        (field ^ " feeds the fingerprint")
        false
        (fp base = fp mutant))
    mutants;
  (* and all mutants are mutually distinct from each other *)
  let fps = fp base :: List.map (fun (_, m) -> fp m) mutants in
  let sorted = List.sort_uniq compare fps in
  Alcotest.(check int) "no fingerprint collisions" (List.length fps)
    (List.length sorted)

(* ---- Bounded compile memo ------------------------------------------------- *)

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
  (* the workload compile memo rides on it *)
  let w = Registry.print_tokens2 in
  Alcotest.(check bool) "hit returns the memoized instance" true
    (Workload.compile ~bug:1 w == Workload.compile ~bug:1 w)

(* ---- The cached experiment runner ----------------------------------------- *)

let find_experiments ids =
  List.map
    (fun id ->
      match Runner.find id with
      | Some e -> e
      | None -> Alcotest.fail ("unknown experiment " ^ id))
    ids

let stdout_of legs = String.concat "" (List.map (fun a -> a.Runner.stdout) legs)
let traces_of legs = List.concat_map (fun a -> a.Runner.traces) legs
let obs_of legs = List.concat_map (fun a -> a.Runner.obs) legs
let capturing = { Run_spec.default with Run_spec.trace = true; obs = true }

let test_run_cached_cold_warm () =
  let dir = tmp_dir () in
  let experiments = find_experiments [ "tab2"; "tab3" ] in
  let quiet = ignore in
  let uncached =
    stdout_of (Runner.run_list ~out:quiet Run_spec.default experiments)
  in
  let cache = Resultcache.create ~dir () in
  let cold = Runner.run_cached ~cache ~out:quiet capturing experiments in
  Alcotest.(check int) "cold misses" 2
    (Resultcache.stat cache "resultcache.miss");
  (* a fresh store instance: both legs must replay from disk, bytes equal *)
  let cache = Resultcache.create ~dir () in
  let warm = Runner.run_cached ~cache ~out:quiet capturing experiments in
  Alcotest.(check int) "warm disk hits" 2
    (Resultcache.stat cache "resultcache.hit_disk");
  Alcotest.(check string) "stdout replays byte-identically" (stdout_of cold)
    (stdout_of warm);
  Alcotest.(check bool) "trace artifacts replay" true
    (traces_of cold = traces_of warm);
  Alcotest.(check bool) "obs artifacts replay" true (obs_of cold = obs_of warm);
  (* trace/obs capture is a different key axis than the plain sweep, and
     the plain sweep's bytes match the uncached runner *)
  let plain =
    Runner.run_cached ~cache ~out:quiet Run_spec.default experiments
  in
  Alcotest.(check bool) "plain sweep has no artifacts" true
    (traces_of plain = [] && obs_of plain = []);
  Alcotest.(check string) "cached output matches uncached runner" uncached
    (stdout_of plain)

(* A cold leg run on the caller's domain fans its runs out to pool workers
   (abl1 par_maps three workloads): every run's trace and snapshot must
   still reach the leg, be stored, and replay unchanged. *)
let test_run_cached_fanned_out_leg () =
  let experiments = find_experiments [ "abl1" ] in
  let quiet = ignore in
  let uncached = Runner.run_list ~out:quiet capturing experiments in
  Alcotest.(check int) "uncached traces" 6 (List.length (traces_of uncached));
  Alcotest.(check int) "uncached snapshots" 6 (List.length (obs_of uncached));
  let dir = tmp_dir () in
  let cache = Resultcache.create ~dir () in
  let parallel = { capturing with Run_spec.jobs = 2 } in
  let cold = Runner.run_cached ~cache ~out:quiet parallel experiments in
  Alcotest.(check bool) "cold traces match the serial capture" true
    (traces_of cold = traces_of uncached);
  Alcotest.(check bool) "cold snapshots match the serial capture" true
    (obs_of cold = obs_of uncached);
  let cache = Resultcache.create ~dir () in
  let warm = Runner.run_cached ~cache ~out:quiet parallel experiments in
  Alcotest.(check int) "warm disk hit" 1
    (Resultcache.stat cache "resultcache.hit_disk");
  Alcotest.(check bool) "warm traces replay" true
    (traces_of warm = traces_of uncached);
  Alcotest.(check bool) "warm snapshots replay" true
    (obs_of warm = obs_of uncached)

let tests =
  [
    Alcotest.test_case "key canonicalization" `Quick test_key_canonical;
    Alcotest.test_case "directed round-trip" `Quick test_roundtrip_directed;
    qtest roundtrip_prop;
    Alcotest.test_case "corrupt stdout" `Quick test_corrupt_stdout;
    Alcotest.test_case "truncated artifact" `Quick test_truncated_artifact;
    Alcotest.test_case "missing artifact" `Quick test_missing_artifact;
    Alcotest.test_case "garbage manifest" `Quick test_garbage_manifest;
    Alcotest.test_case "key-text mismatch" `Quick test_key_text_mismatch;
    Alcotest.test_case "missing manifest" `Quick test_missing_manifest;
    Alcotest.test_case "memory tier bound" `Quick test_memory_bound;
    Alcotest.test_case "disk store bound" `Quick test_disk_bound;
    Alcotest.test_case "hit rate and reset" `Quick test_hit_rate_and_reset;
    Alcotest.test_case "config fingerprint fields" `Quick
      test_fingerprint_fields;
    Alcotest.test_case "bounded compile memo" `Quick test_compile_lru;
    Alcotest.test_case "cached runner cold/warm" `Slow
      test_run_cached_cold_warm;
    Alcotest.test_case "cached runner, fanned-out cold leg" `Slow
      test_run_cached_fanned_out_leg;
  ]
