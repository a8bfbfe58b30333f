(* Property tests for the cache's O(dirty-lines) owner operations: the
   journal-indexed gang_invalidate / commit_owner / owned_lines must be
   observationally identical to the Cache.Reference full-array sweeps under
   arbitrary interleavings of fills, write-hit retags, read hits, evictions,
   squashes and commits across several concurrent owners, on caches of one
   and of two line pages — plus regression tests for the stale-journal
   hazards (write-hit steals, path-id reuse after squash). *)

let qtest = QCheck_alcotest.to_alcotest

(* Two geometries, each run on every op sequence. One page: 1 KB, 2-way,
   32-byte lines -> 16 sets x 2 ways = 32 lines, so random addresses over
   128 distinct lines collide and evict. Two pages: 8 KB, 2-way -> 128 sets
   in two 64-set pages, reached by [page_addr] below. *)
let fresh_cache () = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32
let fresh_two_page_cache () = Cache.create ~size_kb:8 ~assoc:2 ~line_bytes:32

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
  | Squash of int
  | Commit of int
  | Owned of int

let op_to_string = function
  | Access (a, o, w, al) -> Printf.sprintf "A(%d,o%d,w%b,al%b)" a o w al
  | Squash o -> Printf.sprintf "S(o%d)" o
  | Commit o -> Printf.sprintf "C(o%d)" o
  | Owned o -> Printf.sprintf "O(o%d)" o

(* Three speculative owners (1..3) plus committed (0) on accesses. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (a, (o, (w, al))) -> Access (a, o, w, al))
            (pair addr_gen
               (pair (int_bound 3) (pair bool (frequencyl [ (4, true); (1, false) ])))) );
        (1, map (fun o -> Squash (1 + o)) (int_bound 2));
        (1, map (fun o -> Commit (1 + o)) (int_bound 2));
        (1, map (fun o -> Owned o) (int_bound 3));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 80) op_gen)

let snapshots_equal a b = Cache.snapshot a = Cache.snapshot b

(* Twin execution: [ca] uses the journal-indexed operations, [cb] the
   Reference sweeps. Every step must produce the same return value and leave
   the two caches in the same visible state. *)
let indexed_ops_match_reference fresh ops =
  let ca = fresh () in
  let cb = fresh () in
  List.for_all
    (fun op ->
      let same_result =
        match op with
        | Access (addr, owner, write, allocate) ->
          Cache.access ~owner ~write ~allocate ca addr
          = Cache.access ~owner ~write ~allocate cb addr
        | Squash owner ->
          Cache.gang_invalidate ca ~owner
          = Cache.Reference.gang_invalidate cb ~owner
        | Commit owner ->
          Cache.commit_owner ca ~owner
          = Cache.Reference.commit_owner cb ~owner
        | Owned owner ->
          Cache.owned_lines ca ~owner = Cache.Reference.owned_lines cb ~owner
      in
      same_result && snapshots_equal ca cb
      && Cache.hits ca = Cache.hits cb
      && Cache.misses ca = Cache.misses cb
      (* the O(1) count agrees with a sweep of the same cache, too *)
      && List.for_all
           (fun o ->
             Cache.owned_lines ca ~owner:o
             = Cache.Reference.owned_lines ca ~owner:o)
           [ 0; 1; 2; 3 ])
    ops

let prop_indexed_ops_match_reference =
  QCheck.Test.make ~name:"indexed owner ops match Reference sweeps" ~count:300
    ops_arb (fun ops ->
      indexed_ops_match_reference fresh_cache ops
      && indexed_ops_match_reference fresh_two_page_cache ops)

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
  Alcotest.(check int) "reference sweep agrees" 1
    (Cache.Reference.owned_lines c ~owner:7);
  Alcotest.(check int) "squash of reused id clears 1" 1
    (Cache.gang_invalidate c ~owner:7);
  Alcotest.(check int) "other path's line untouched" 1
    (Cache.owned_lines c ~owner:9);
  Alcotest.(check bool) "other path's line still valid" true
    (Array.exists (fun (_, v, o, _) -> v && o = 9) (Cache.snapshot c))

(* Commit-then-reuse: committed lines leave the journal behind too. *)
let test_commit_then_reuse () =
  let c = fresh_cache () in
  ignore (Cache.access ~owner:5 ~write:true c 0);
  Alcotest.(check int) "commit retags 1" 1 (Cache.commit_owner c ~owner:5);
  Alcotest.(check int) "committed line is owner 0" 1
    (Cache.owned_lines c ~owner:Cache.committed_owner);
  ignore (Cache.access ~owner:5 ~write:true c 8);
  Alcotest.(check int) "reused id squash leaves committed line" 1
    (Cache.gang_invalidate c ~owner:5);
  Alcotest.(check bool) "committed line survived" true
    (Array.exists
       (fun (_, v, o, _) -> v && o = Cache.committed_owner)
       (Cache.snapshot c))

let tests =
  qtest prop_indexed_ops_match_reference
  :: [
       Alcotest.test_case "write-hit steal leaves stale journal harmless"
         `Quick test_write_hit_steal;
       Alcotest.test_case "path-id wrap: reused id squashes only its own lines"
         `Quick test_path_id_wrap_stale_lines;
       Alcotest.test_case "commit then id reuse leaves committed data alone"
         `Quick test_commit_then_reuse;
     ]
