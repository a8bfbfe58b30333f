(* Property tests for the cache against [Ref_cache], a test-only model
   with no memo, no tag filter and no journals: the journal-indexed
   gang_invalidate / owned_lines (and their full-sweep
   fallbacks for owner 0 and untracked ids) must be observationally
   identical to the model's sweeps under arbitrary interleavings of fills,
   write-hit retags, read hits, evictions and squashes across
   several concurrent owners, on caches of one and of two line pages —
   plus regression tests for the stale-journal hazards (write-hit steals,
   path-id reuse after squash). *)

let qtest = QCheck_alcotest.to_alcotest

(* Two geometries, each run on every op sequence. One page: 1 KB, 2-way,
   32-byte lines -> 16 sets x 2 ways = 32 lines, so random addresses over
   128 distinct lines collide and evict. Two pages: 8 KB, 2-way -> 128 sets
   in two 64-set pages, reached by [page_addr] below. *)
let fresh_cache () = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32
let fresh_model () = Ref_cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32

(* Addresses that collide across pages in the two-page geometry: four tags
   per set on sets that share an in-page slot (0/64, 1/65, 63/127), so a
   page mix-up aliases lines and a set evicts. *)
let page_addr =
  QCheck.Gen.(
    map3
      (fun tag set word -> (((tag * 128) + set) * 8) + word)
      (int_bound 3)
      (oneofl [ 0; 1; 63; 64; 65; 127 ])
      (int_bound 7))

let addr_gen = QCheck.Gen.(frequency [ (1, int_bound 1023); (1, page_addr) ])

type op =
  | Access of int * int * bool * bool  (* addr, owner, write, allocate *)
  | Probe of int * int * bool
      (* the fast tier's batched access: a memo probe credited with
         [add_hits], or else a plain access *)
  | Squash of int
  | Owned of int

let op_to_string = function
  | Access (a, o, w, al) -> Printf.sprintf "A(%d,o%d,w%b,al%b)" a o w al
  | Probe (a, o, w) -> Printf.sprintf "P(%d,o%d,w%b)" a o w
  | Squash o -> Printf.sprintf "S(o%d)" o
  | Owned o -> Printf.sprintf "O(o%d)" o

let access_gen owner =
  QCheck.Gen.(
    map
      (fun (a, (o, (w, al))) -> Access (a, o, w, al))
      (pair addr_gen
         (pair owner (pair bool (frequencyl [ (4, true); (1, false) ])))))

(* Speculative owners 1..3 and committed 0 on accesses, and now and then
   owner 300, outside the 8-bit range the journals track; squash and
   owned-lines also reach owner 0 and 300, which take the sweeps. *)
let op_gen =
  let owner = QCheck.Gen.(frequency [ (12, int_bound 3); (1, return 300) ]) in
  let path = QCheck.Gen.(frequency [ (8, map succ (int_bound 2)); (1, return 0); (1, return 300) ]) in
  QCheck.Gen.(
    frequency
      [
        (6, access_gen owner);
        (2, map (fun o -> Squash o) path);
        (1, map (fun o -> Owned o) owner);
      ])

let ops_arb ?(max = 80) gen =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 max) gen)

(* Twin execution, the cache against the model: every step must produce
   the same result — hit or miss, line counts — and leave the same visible
   state: [snapshot_canonical] against the model's ranks (the memo skips
   clock ticks, so raw stamps differ), the hit and miss counters, and the
   lines each of owners 0-3 holds. *)
let matches_model ~size_kb ops =
  let c = Cache.create ~size_kb ~assoc:2 ~line_bytes:32 in
  let m = Ref_cache.create ~size_kb ~assoc:2 ~line_bytes:32 in
  let access addr ~owner ~write ~allocate =
    (Cache.access_line c addr ~owner ~write ~allocate = Cache.Hit)
    = Ref_cache.access m addr ~owner ~write ~allocate
  in
  List.for_all
    (fun op ->
      let same_result =
        match op with
        | Access (addr, owner, write, allocate) ->
          access addr ~owner ~write ~allocate
        | Probe (addr, owner, write) ->
          if Cache.memo_probe c addr ~owner ~write then begin
            Cache.add_hits c 1;
            Ref_cache.access m addr ~owner ~write ~allocate:true
          end
          else access addr ~owner ~write ~allocate:true
        | Squash owner ->
          Cache.gang_invalidate c ~owner = Ref_cache.gang_invalidate m ~owner
        | Owned owner ->
          Cache.owned_lines c ~owner = Ref_cache.owned_lines m ~owner
      in
      same_result
      && Cache.snapshot_canonical c = Ref_cache.snapshot m
      && Cache.hits c = Ref_cache.hits m
      && Cache.misses c = Ref_cache.misses m
      && List.for_all
           (fun o -> Cache.owned_lines c ~owner:o = Ref_cache.owned_lines m ~owner:o)
           [ 0; 1; 2; 3 ])
    ops

let prop_indexed_ops_match_model =
  QCheck.Test.make
    ~name:"indexed owner ops match Reference model (Ref_cache sweeps)"
    ~count:300 (ops_arb op_gen) (fun ops ->
      matches_model ~size_kb:1 ops && matches_model ~size_kb:8 ops)

(* --- stale-journal regressions ---------------------------------------------- *)

(* A write hit by owner 8 steals a line owner 7 filled; 7's journal still
   mentions the line, but squashing 7 must not touch it. *)
let test_write_hit_steal () =
  let c = fresh_cache () in
  ignore (Cache.access ~owner:7 ~write:true c 0);
  ignore (Cache.access ~owner:8 ~write:true c 0);
  Alcotest.(check int) "7 owns nothing" 0 (Cache.owned_lines c ~owner:7);
  Alcotest.(check int) "squash of 7 clears nothing" 0 (Cache.gang_invalidate c ~owner:7);
  Alcotest.(check int) "8 still owns the line" 1 (Cache.owned_lines c ~owner:8);
  Alcotest.(check bool) "line still valid" true
    (Array.exists (fun (_, v, o, _) -> v && o = 8) (Cache.snapshot c))

(* Path-id reuse (the 8-bit id space wraps): after a path with id 7 is
   squashed, another path dirties the same line, then a brand-new path
   reuses id 7. The recycled id's squash must cover exactly the lines the
   *new* incarnation touched — the old incarnation's (cleared) journal must
   neither resurrect old lines nor invalidate other owners' data. *)
let test_path_id_wrap_stale_lines () =
  let c = fresh_cache () in
  (* first incarnation of id 7 dirties two lines, then squashes *)
  ignore (Cache.access ~owner:7 ~write:true c 0);
  ignore (Cache.access ~owner:7 ~write:true c 8);
  Alcotest.(check int) "first incarnation owns 2" 2 (Cache.owned_lines c ~owner:7);
  Alcotest.(check int) "squash clears 2" 2 (Cache.gang_invalidate c ~owner:7);
  (* a different path now owns line 0's address *)
  ignore (Cache.access ~owner:9 ~write:true c 0);
  (* id 7 is reused by a new path touching a fresh line *)
  ignore (Cache.access ~owner:7 ~write:true c 16);
  Alcotest.(check int) "reused id owns only its new line" 1
    (Cache.owned_lines c ~owner:7);
  (* the same history on the model *)
  let m = fresh_model () in
  let write owner addr =
    ignore (Ref_cache.access m addr ~owner ~write:true ~allocate:true)
  in
  write 7 0;
  write 7 8;
  ignore (Ref_cache.gang_invalidate m ~owner:7);
  write 9 0;
  write 7 16;
  Alcotest.(check int) "the model agrees" 1 (Ref_cache.owned_lines m ~owner:7);
  Alcotest.(check int) "squash of reused id clears 1" 1
    (Cache.gang_invalidate c ~owner:7);
  Alcotest.(check int) "other path's line untouched" 1
    (Cache.owned_lines c ~owner:9);
  Alcotest.(check bool) "other path's line still valid" true
    (Array.exists (fun (_, v, o, _) -> v && o = 9) (Cache.snapshot c))

let tests =
  qtest prop_indexed_ops_match_model
  :: [
       Alcotest.test_case "write-hit steal leaves stale journal harmless"
         `Quick test_write_hit_steal;
       Alcotest.test_case "path-id wrap: reused id squashes only its own lines"
         `Quick test_path_id_wrap_stale_lines;
     ]
