(* Tests for the cache probe fast path (MRU line memo + direct-mapped tag
   filter): a memoized and a plain cache must be observationally identical
   under arbitrary multi-owner interleavings of accesses, squashes, commits
   and path-id reuse — plus directed tests for every memo invalidation
   hazard (squash-then-reread, commit retag, 8-bit path-id wrap, the
   fast-path toggle) and an end-to-end check that watchpoint stores are
   never hidden by the memo's batched accounting. *)

let qtest = QCheck_alcotest.to_alcotest

(* Same geometries and addresses as test_cache_props: one page of 16 sets
   x 2 ways = 32 lines, 8 words (32 bytes) per line, addresses spanning 128
   distinct lines; and 128 sets in two pages, with addresses that collide
   across them. *)
let fresh_cache ?(size_kb = 1) ~fastpath () =
  let c = Cache.create ~size_kb ~assoc:2 ~line_bytes:32 in
  Cache.set_fastpath c fastpath;
  c

type op =
  | Access of int * int * bool * bool  (* addr, owner, write, allocate *)
  | Squash of int
  | Commit of int

let op_to_string = function
  | Access (a, o, w, al) -> Printf.sprintf "A(%d,o%d,w%b,al%b)" a o w al
  | Squash o -> Printf.sprintf "S(o%d)" o
  | Commit o -> Printf.sprintf "C(o%d)" o

(* Three speculative owners (1..3) plus committed (0); squash/commit make
   owner ids recycle mid-sequence, so the generator exercises the wrap
   hazard (a reused id re-acquiring lines while the memo remembers the old
   incarnation) without needing 256 spawns. *)
let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map
            (fun (a, (o, (w, al))) -> Access (a, o, w, al))
            (pair Test_cache_props.addr_gen
               (pair (int_bound 3) (pair bool (frequencyl [ (4, true); (1, false) ])))) );
        (1, map (fun o -> Squash (1 + o)) (int_bound 2));
        (1, map (fun o -> Commit (1 + o)) (int_bound 2));
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 1 100) op_gen)

(* Twin execution, memoized vs plain. The memo skips LRU clock ticks for
   the hits it answers, so raw stamps diverge; [snapshot_canonical] (per-set
   LRU ranks) is the state both must agree on, along with every outcome,
   the hit/miss counters, and the per-owner line counts. *)
let memoized_matches_plain ~size_kb ops =
  let cf = fresh_cache ~size_kb ~fastpath:true () in
  let cp = fresh_cache ~size_kb ~fastpath:false () in
  List.for_all
    (fun op ->
      let same_result =
        match op with
        | Access (addr, owner, write, allocate) ->
          Cache.access_line cf addr ~owner ~write ~allocate
          = Cache.access_line cp addr ~owner ~write ~allocate
        | Squash owner ->
          Cache.gang_invalidate cf ~owner = Cache.gang_invalidate cp ~owner
        | Commit owner ->
          Cache.commit_owner cf ~owner = Cache.commit_owner cp ~owner
      in
      same_result
      && Cache.snapshot_canonical cf = Cache.snapshot_canonical cp
      && Cache.hits cf = Cache.hits cp
      && Cache.misses cf = Cache.misses cp
      && List.for_all
           (fun o -> Cache.owned_lines cf ~owner:o = Cache.owned_lines cp ~owner:o)
           [ 0; 1; 2; 3 ])
    ops

let prop_memoized_matches_plain =
  QCheck.Test.make ~name:"memoized cache matches plain cache" ~count:300
    ops_arb (fun ops ->
      memoized_matches_plain ~size_kb:1 ops
      && memoized_matches_plain ~size_kb:8 ops)

(* [memo_probe]'s contract: answering [true] promises [access_line] is a
   hit with no state change beyond the hit counter — so probe-then-access
   must yield Hit with an unchanged canonical snapshot, and the batched
   [add_hits] flush must land the same counter value. *)
let prop_memo_probe_is_pure_hit =
  QCheck.Test.make ~name:"memo_probe implies pure hit" ~count:300 ops_arb
    (fun ops ->
      let c = fresh_cache ~fastpath:true () in
      List.for_all
        (fun op ->
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
          | Squash owner ->
            ignore (Cache.gang_invalidate c ~owner);
            true
          | Commit owner ->
            ignore (Cache.commit_owner c ~owner);
            true)
        ops)

(* --- directed invalidation edges -------------------------------------------- *)

(* Squash-then-reread: the squashed line is the memoized line; trusting the
   memo would fast-hit dead data. *)
let test_squash_then_reread () =
  let c = fresh_cache ~fastpath:true () in
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
  let c = fresh_cache ~fastpath:true () in
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
  let c = fresh_cache ~fastpath:true () in
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

(* The kill switch: disabling stops fast-path answers immediately, and
   re-enabling must not trust entries noted before the toggle. *)
let test_toggle_kills_memo () =
  let c = fresh_cache ~fastpath:true () in
  ignore (Cache.access_line c 0 ~owner:0 ~write:false ~allocate:true);
  Alcotest.(check bool) "memoized while on" true
    (Cache.memo_probe c 0 ~owner:0 ~write:false);
  Cache.set_fastpath c false;
  Alcotest.(check bool) "no probe while off" false
    (Cache.memo_probe c 0 ~owner:0 ~write:false);
  Cache.set_fastpath c true;
  Alcotest.(check bool) "stale entry not trusted on re-enable" false
    (Cache.memo_probe c 0 ~owner:0 ~write:false);
  ignore (Cache.access_line c 0 ~owner:0 ~write:false ~allocate:true);
  Alcotest.(check bool) "re-memoized by a real access" true
    (Cache.memo_probe c 0 ~owner:0 ~write:false)

(* --- watchpoint store on a memoized line ------------------------------------- *)

(* A store through a watched red zone whose cache line sits in the memo:
   the watch check is independent of the cache outcome. Segments with armed
   watchpoints do run on the batching fast tier, but it stops before any
   access to a watched word and leaves that access to the hooked step, so
   the memo must not swallow the report. Run the iWatcher overflow
   workload end-to-end with the fast path on and off — identical reports,
   output and retired counts, with the fast tier engaged. *)
let run_iwatcher ~fastpath source =
  let options = { Codegen.detector = Codegen.Iwatcher; fixing = true } in
  let compiled = Compile.compile ~options source in
  let machine = Machine.create ~input:"" ~fastpath compiled.Compile.program in
  let result = Engine.run ~config:Pe_config.default machine in
  (machine, result)

let test_watchpoint_store_fastpath_parity () =
  let source =
    {|
int smash(int n) {
  int buf[4];
  int i;
  for (i = 0; i <= n; i = i + 1) {
    buf[i] = i;
  }
  return buf[0];
}
int main() { return smash(4); }
|}
  in
  let m_on, r_on = run_iwatcher ~fastpath:true source in
  let m_off, r_off = run_iwatcher ~fastpath:false source in
  Alcotest.(check bool) "red zone fires with fast path on" true
    (Report.count m_on.Machine.reports > 0);
  Alcotest.(check int) "same report count"
    (Report.count m_off.Machine.reports)
    (Report.count m_on.Machine.reports);
  Alcotest.(check string) "same output" (Machine.output m_off)
    (Machine.output m_on);
  Alcotest.(check string) "same outcome"
    (Engine.outcome_name r_off.Engine.outcome)
    (Engine.outcome_name r_on.Engine.outcome);
  Alcotest.(check int) "same retired count" r_off.Engine.taken_insns
    r_on.Engine.taken_insns;
  Alcotest.(check bool) "fast tier engaged" true (r_on.Engine.fast_insns > 0)

let tests =
  [
    qtest prop_memoized_matches_plain;
    qtest prop_memo_probe_is_pure_hit;
    Alcotest.test_case "squash then reread misses" `Quick test_squash_then_reread;
    Alcotest.test_case "commit retag invalidates memo" `Quick test_commit_retag;
    Alcotest.test_case "path-id wrap with memoized owner" `Quick
      test_path_id_wrap_memoized_owner;
    Alcotest.test_case "fast-path toggle kills memo" `Quick
      test_toggle_kills_memo;
    Alcotest.test_case "watchpoint store parity, fast path on/off" `Quick
      test_watchpoint_store_fastpath_parity;
  ]
