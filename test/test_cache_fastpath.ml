(* Tests for the cache probe fast path (MRU line memo + direct-mapped tag
   filter): the cache must be observationally identical to [Ref_cache], a
   model with neither layer, under arbitrary multi-owner interleavings of
   accesses, the fast tier's batched probes, squashes, commits and path-id
   reuse — plus directed tests for every memo invalidation hazard
   (squash-then-reread, commit retag, 8-bit path-id wrap). *)

let qtest = QCheck_alcotest.to_alcotest

(* Same geometries and addresses as test_cache_props: one page of 16 sets
   x 2 ways = 32 lines, 8 words (32 bytes) per line, addresses spanning 128
   distinct lines; and 128 sets in two pages, with addresses that collide
   across them. *)
let fresh_cache () = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32

(* Three speculative owners (1..3) plus committed (0); squash/commit make
   owner ids recycle mid-sequence, so the generator exercises the wrap
   hazard (a reused id re-acquiring lines while the memo remembers the old
   incarnation) without needing 256 spawns. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, Test_cache_props.access_gen (int_bound 3));
        ( 2,
          map
            (fun (a, (o, w)) -> Test_cache_props.Probe (a, o, w))
            (pair Test_cache_props.addr_gen (pair (int_bound 3) bool)) );
        (1, map (fun o -> Test_cache_props.Squash (1 + o)) (int_bound 2));
        (1, map (fun o -> Test_cache_props.Commit (1 + o)) (int_bound 2));
      ])

let ops_arb = Test_cache_props.ops_arb ~max:100 op_gen

let prop_memoized_matches_plain =
  QCheck.Test.make ~name:"memoized cache matches plain cache model (Ref_cache)"
    ~count:300 ops_arb (fun ops ->
      Test_cache_props.matches_model ~size_kb:1 ops
      && Test_cache_props.matches_model ~size_kb:8 ops)

(* [memo_probe]'s contract: answering [true] promises [access_line] is a
   hit with no state change beyond the hit counter — so probe-then-access
   must yield Hit with an unchanged canonical snapshot, and the batched
   [add_hits] flush must land the same counter value. *)
let prop_memo_probe_is_pure_hit =
  QCheck.Test.make ~name:"memo_probe implies pure hit" ~count:300 ops_arb
    (fun ops ->
      let c = fresh_cache () in
      List.for_all
        (fun (op : Test_cache_props.op) ->
          match op with
          | Access (addr, owner, write, allocate) ->
            if Cache.memo_probe c addr ~owner ~write then begin
              let before = Cache.snapshot_canonical c in
              let hits = Cache.hits c in
              Cache.access_line c addr ~owner ~write ~allocate = Cache.Hit
              && Cache.snapshot_canonical c = before
              && Cache.hits c = hits + 1
            end
            else begin
              ignore (Cache.access_line c addr ~owner ~write ~allocate);
              true
            end
          | Probe (addr, owner, write) ->
            ignore (Cache.access_line c addr ~owner ~write ~allocate:true);
            true
          | Squash owner ->
            ignore (Cache.gang_invalidate c ~owner);
            true
          | Commit owner ->
            ignore (Cache.commit_owner c ~owner);
            true
          | Owned _ -> true)
        ops)

(* --- directed invalidation edges -------------------------------------------- *)

(* Squash-then-reread: the squashed line is the memoized line; trusting the
   memo would fast-hit dead data. *)
let test_squash_then_reread () =
  let c = fresh_cache () in
  ignore (Cache.access_line c 0 ~owner:3 ~write:true ~allocate:true);
  Alcotest.(check bool) "line memoized" true
    (Cache.memo_probe c 0 ~owner:Cache.committed_owner ~write:false);
  Alcotest.(check int) "squash releases it" 1 (Cache.gang_invalidate c ~owner:3);
  Alcotest.(check bool) "memo killed by squash" false
    (Cache.memo_probe c 0 ~owner:Cache.committed_owner ~write:false);
  Alcotest.(check bool) "reread misses" true
    (Cache.access_line c 0 ~owner:Cache.committed_owner ~write:false
       ~allocate:true
     = Cache.Miss)

(* Commit retag: after the lazy commit the memo's owner mirror is stale — a
   same-owner write trusted against it would skip the retag-and-journal the
   now-committed line is due. *)
let test_commit_retag () =
  let c = fresh_cache () in
  ignore (Cache.access_line c 0 ~owner:5 ~write:true ~allocate:true);
  Alcotest.(check bool) "same-owner write memoized" true
    (Cache.memo_probe c 0 ~owner:5 ~write:true);
  Alcotest.(check int) "commit retags 1" 1 (Cache.commit_owner c ~owner:5);
  Alcotest.(check bool) "memo killed by commit" false
    (Cache.memo_probe c 0 ~owner:5 ~write:true);
  (* the write now re-acquires the committed line for owner 5 ... *)
  Alcotest.(check bool) "write hits" true
    (Cache.access_line c 0 ~owner:5 ~write:true ~allocate:true = Cache.Hit);
  Alcotest.(check int) "line retagged to 5" 1 (Cache.owned_lines c ~owner:5);
  Alcotest.(check int) "committed lost it" 0
    (Cache.owned_lines c ~owner:Cache.committed_owner);
  (* ... and the re-acquisition is journaled: squashing 5 must release it *)
  Alcotest.(check int) "squash of 5 releases the retagged line" 1
    (Cache.gang_invalidate c ~owner:5)

(* 8-bit path-id wrap: id 7 is squashed and later reused by a fresh path.
   The defensive zero-line cleanup squash the engine runs on wrap must keep
   the memo warm (it changed nothing), while the new incarnation's own
   lines memoize normally and the *old* incarnation's address misses. *)
let test_path_id_wrap_memoized_owner () =
  let c = fresh_cache () in
  (* first incarnation of id 7 *)
  ignore (Cache.access_line c 0 ~owner:7 ~write:true ~allocate:true);
  Alcotest.(check int) "incarnation 1 squashed" 1 (Cache.gang_invalidate c ~owner:7);
  (* id 7 reused: wrap runs a defensive cleanup squash first (releases 0) *)
  Alcotest.(check int) "wrap cleanup releases nothing" 0
    (Cache.gang_invalidate c ~owner:7);
  ignore (Cache.access_line c 256 ~owner:7 ~write:true ~allocate:true);
  Alcotest.(check bool) "new incarnation's line memoized" true
    (Cache.memo_probe c 256 ~owner:7 ~write:true);
  (* zero-line squash of an unrelated owner keeps the memo warm *)
  Alcotest.(check int) "empty squash of owner 6" 0 (Cache.gang_invalidate c ~owner:6);
  Alcotest.(check bool) "memo survives the no-op squash" true
    (Cache.memo_probe c 256 ~owner:7 ~write:true);
  (* the old incarnation's line is gone — no fast hit, a real miss *)
  Alcotest.(check bool) "old incarnation's address not memoized" false
    (Cache.memo_probe c 0 ~owner:7 ~write:false);
  Alcotest.(check bool) "old incarnation's address misses" true
    (Cache.access_line c 0 ~owner:7 ~write:false ~allocate:true = Cache.Miss)

let tests =
  [
    qtest prop_memoized_matches_plain;
    qtest prop_memo_probe_is_pure_hit;
    Alcotest.test_case "squash then reread misses" `Quick test_squash_then_reread;
    Alcotest.test_case "commit retag invalidates memo" `Quick test_commit_retag;
    Alcotest.test_case "path-id wrap with memoized owner" `Quick
      test_path_id_wrap_memoized_owner;
  ]
