(* Unit tests for the machine substrate: memory, caches, BTB, watchpoints,
   the report log and execution contexts. *)

let mem () = Memory.create ~globals_words:100 ~heap_words:1000 ~stack_words:1000

let test_memory_layout () =
  let m = mem () in
  Alcotest.(check int) "globals end" (Memory.null_guard + 100) m.Memory.globals_end;
  Alcotest.(check int) "heap base" m.Memory.globals_end m.Memory.heap_base;
  Alcotest.(check int) "stack base" (Memory.size m) m.Memory.stack_base

let test_memory_null_page () =
  let m = mem () in
  for addr = 0 to Memory.null_guard - 1 do
    Alcotest.(check bool) "null page invalid" false (Memory.is_valid m addr)
  done;
  Alcotest.(check bool) "first global valid" true
    (Memory.is_valid m Memory.null_guard);
  Alcotest.check_raises "null read" (Memory.Fault Memory.Null_access) (fun () ->
      ignore (Memory.read m 3))

let test_memory_out_of_range () =
  let m = mem () in
  Alcotest.check_raises "beyond space"
    (Memory.Fault (Memory.Out_of_range (Memory.size m)))
    (fun () -> Memory.write m (Memory.size m) 1);
  Alcotest.check_raises "negative" (Memory.Fault (Memory.Out_of_range (-5)))
    (fun () -> ignore (Memory.read m (-5)))

let test_memory_read_write () =
  let m = mem () and other = mem () in
  Memory.write m 20 123;
  Alcotest.(check int) "read back" 123 (Memory.read m 20);
  (* untouched pages share one zero page: a write must not show through it *)
  Alcotest.(check int) "other memory untouched" 0 (Memory.read other 20);
  Alcotest.(check int) "fresh memory untouched" 0 (Memory.read (mem ()) 20);
  Memory.load_init m [ (21, 7); (22, 8) ];
  Alcotest.(check int) "init 21" 7 (Memory.read m 21);
  Alcotest.(check int) "init 22" 8 (Memory.read m 22);
  (* both sides of a page edge, the first global and the last stack word *)
  let edges = [ Memory.null_guard; 1023; 1024; Memory.size m - 1 ] in
  List.iter (fun a -> Memory.write m a (a + 1)) edges;
  List.iter
    (fun a ->
      Alcotest.(check int) (Printf.sprintf "edge %d" a) (a + 1) (Memory.read m a))
    edges;
  Alcotest.(check int) "after first global" 0
    (Memory.read m (Memory.null_guard + 1));
  Alcotest.(check int) "before last stack word" 0
    (Memory.read m (Memory.size m - 2))

(* Words allocated by [f], minor and major, plus any growth of the major
   heap. Emptying the minor heap first keeps a promotion from growing the
   major heap in the middle of the measurement. Minor words come from
   [Gc.minor_words]: on OCaml 5.1 the minor count of [Gc.counters] misses
   most small blocks (2048 six-word records read as ~1.5K words). *)
let allocated_words f =
  Gc.minor ();
  let minor0 = Gc.minor_words () in
  let _, _, major0 = Gc.counters () in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, _, major1 = Gc.counters () in
  let heap1 = (Gc.quick_stat ()).Gc.heap_words in
  ( r,
    int_of_float (minor1 -. minor0 +. major1 -. major0) + max 0 (heap1 - heap0) )

let test_memory_pays_for_writes_only () =
  let c = Machine_config.default in
  let m, create_words =
    allocated_words (fun () ->
        Memory.create ~globals_words:100 ~heap_words:c.Machine_config.heap_words
          ~stack_words:c.Machine_config.stack_words)
  in
  Alcotest.(check bool)
    (Printf.sprintf "create: %d words for a %d-word space" create_words
       (Memory.size m))
    true
    (create_words < Memory.size m / 256);
  let sum, read_words =
    allocated_words (fun () ->
        let sum = ref 0 in
        for a = Memory.null_guard to Memory.size m - 1 do
          sum := !sum + Memory.read m a
        done;
        !sum)
  in
  Alcotest.(check int) "all zero" 0 sum;
  Alcotest.(check bool)
    (Printf.sprintf "reading every word allocated %d words" read_words)
    true (read_words < 256)

(* The Table-2 L2 (1 MB, 8-way, 32-byte lines: 32K lines) pays for a page
   table at [create] and for a page per page of sets a fill first reaches;
   the Table-2 BTB is flat arrays, not a record per entry. A page is over
   a thousand words; [allocated_words] itself reads ~34. *)
let test_cache_pays_for_lines_it_fills () =
  let c = Machine_config.default in
  let create_l2 () =
    Cache.create ~size_kb:c.Machine_config.l2_size_kb
      ~assoc:c.Machine_config.l2_assoc ~line_bytes:c.Machine_config.line_bytes
  in
  (* The never-written zero page is shared by every cache and built once
     per process for the widest associativity; only the second create
     shows the per-cache cost. *)
  ignore (create_l2 ());
  let l2, create_words = allocated_words create_l2 in
  Alcotest.(check bool)
    (Printf.sprintf "create: %d words for %d lines" create_words
       (Cache.line_count l2))
    true
    (create_words < Cache.line_count l2 / 16);
  let access addr ~allocate =
    allocated_words (fun () ->
        Cache.access_line l2 addr ~owner:Cache.committed_owner ~write:false
          ~allocate)
  in
  let outcome, probe_words = access 0 ~allocate:false in
  Alcotest.(check bool) "probe misses" true (outcome = Cache.Miss);
  Alcotest.(check bool)
    (Printf.sprintf "probe allocated %d words" probe_words)
    true (probe_words < 64);
  Alcotest.(check int) "probe installs nothing" 0 (Cache.valid_lines l2);
  let _, fill_words = access 0 ~allocate:true in
  Alcotest.(check bool)
    (Printf.sprintf "first fill allocated %d words" fill_words)
    true
    (fill_words > 0 && fill_words < Cache.line_count l2 / 16);
  (* line 1 (address 8) is the next set: the same page *)
  let _, same_page_words = access 8 ~allocate:true in
  Alcotest.(check bool)
    (Printf.sprintf "same-page fill allocated %d words" same_page_words)
    true (same_page_words < 64);
  (* set 2048 of 4096 is half the cache away: another page, same size *)
  let _, far_words = access (2048 * 8) ~allocate:true in
  Alcotest.(check bool)
    (Printf.sprintf "far fill allocated %d words, first fill %d" far_words
       fill_words)
    true
    (2 * far_words > fill_words && far_words < 2 * fill_words);
  Printf.eprintf "create=%d probe=%d fill=%d same=%d far=%d\n%!" create_words probe_words fill_words same_page_words far_words;
  Alcotest.(check int) "three lines valid" 3 (Cache.valid_lines l2);
  let btb, btb_words =
    allocated_words (fun () ->
        Btb.create ~entries:c.Machine_config.btb_entries
          ~assoc:c.Machine_config.btb_assoc)
  in
  (* five flat arrays (two of ints, three of bytes) and a record; one
     record per entry would be six words each *)
  Alcotest.(check bool)
    (Printf.sprintf "btb create: %d words for %d entries" btb_words
       (Btb.entry_count btb))
    true
    (btb_words < 3 * Btb.entry_count btb)

let test_cache_hit_miss () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  Alcotest.(check bool) "first access misses" true (Cache.access c 100 = Cache.Miss);
  Alcotest.(check bool) "second access hits" true (Cache.access c 100 = Cache.Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c 103 = Cache.Hit);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_eviction () =
  (* 1KB, 2-way, 32B lines: 32 lines, 16 sets; three lines mapping to the
     same set evict the LRU one *)
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  let words_per_line = 8 in
  let set_stride = 16 * words_per_line in
  let a = 0 and b = set_stride and d = 2 * set_stride in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  ignore (Cache.access c d);
  (* a was LRU: evicted *)
  Alcotest.(check bool) "a evicted" true (Cache.access c a = Cache.Miss);
  Alcotest.(check bool) "d stays" true (Cache.access c d = Cache.Hit)

let test_cache_versioning () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  ignore (Cache.access ~owner:3 c 0);
  ignore (Cache.access ~owner:3 c 64);
  ignore (Cache.access c 256);
  Alcotest.(check int) "owned lines" 2 (Cache.owned_lines c ~owner:3);
  Alcotest.(check int) "gang invalidate" 2 (Cache.gang_invalidate c ~owner:3);
  Alcotest.(check int) "none left" 0 (Cache.owned_lines c ~owner:3);
  Alcotest.(check bool) "invalidated line misses" true (Cache.access c 0 = Cache.Miss);
  Alcotest.(check bool) "committed line unaffected" true
    (Cache.access c 256 = Cache.Hit)

(* Ownership semantics across the hit/fill × read/write matrix: only
   NT-Path *fills and writes* create speculative data; a read hit must leave
   a committed line committed, or squashing the path would destroy
   architectural data it merely looked at. *)
let test_cache_read_hit_keeps_committed () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  ignore (Cache.access c 0);
  (* NT-Path 3 reads the committed line *)
  Alcotest.(check bool) "read hit" true (Cache.access ~owner:3 c 0 = Cache.Hit);
  Alcotest.(check int) "line stays committed" 0 (Cache.owned_lines c ~owner:3);
  Alcotest.(check int) "squash invalidates nothing" 0
    (Cache.gang_invalidate c ~owner:3);
  Alcotest.(check bool) "committed data survives the squash" true
    (Cache.access c 0 = Cache.Hit)

let test_cache_write_hit_takes_ownership () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  ignore (Cache.access c 0);
  ignore (Cache.access ~owner:3 ~write:true c 0);
  Alcotest.(check int) "write hit retags" 1 (Cache.owned_lines c ~owner:3);
  Alcotest.(check int) "squash removes it" 1 (Cache.gang_invalidate c ~owner:3);
  Alcotest.(check bool) "speculative line gone" true
    (Cache.access c 0 = Cache.Miss)

let test_cache_read_fill_takes_ownership () =
  (* a read *miss* inside the sandbox installs a speculative line, so the
     NT-Path cannot act as a prefetcher for the taken path *)
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  ignore (Cache.access ~owner:4 c 0);
  Alcotest.(check int) "fill owned by the path" 1 (Cache.owned_lines c ~owner:4);
  Alcotest.(check int) "squashed" 1 (Cache.gang_invalidate c ~owner:4);
  Alcotest.(check bool) "no warm line left behind" true
    (Cache.access c 0 = Cache.Miss)

let test_cache_occupancy () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  Alcotest.(check int) "capacity (1KB / 32B)" 32 (Cache.line_count c);
  Alcotest.(check int) "empty" 0 (Cache.valid_lines c);
  ignore (Cache.access c 0);
  ignore (Cache.access ~owner:2 c 64);
  Alcotest.(check int) "two lines installed" 2 (Cache.valid_lines c);
  ignore (Cache.gang_invalidate c ~owner:2);
  Alcotest.(check int) "one after squash" 1 (Cache.valid_lines c)

let test_cache_no_allocate () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  Alcotest.(check bool) "probe misses" true
    (Cache.access ~allocate:false c 0 = Cache.Miss);
  Alcotest.(check bool) "still not installed" true
    (Cache.access ~allocate:false c 0 = Cache.Miss)

let test_cache_negative_address () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  (* must not raise even for nonsense addresses *)
  ignore (Cache.access c (-12345));
  ignore (Cache.access c max_int)

let test_btb_counters () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Alcotest.(check (pair int int)) "miss reads zero" (0, 0) (Btb.counts btb 100);
  Btb.exercise btb 100 ~taken:true;
  Btb.exercise btb 100 ~taken:true;
  Btb.exercise btb 100 ~taken:false;
  Alcotest.(check (pair int int)) "counts" (2, 1) (Btb.counts btb 100)

let test_btb_saturation () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  for _ = 1 to 100 do
    Btb.exercise btb 5 ~taken:true
  done;
  let taken, _ = Btb.counts btb 5 in
  Alcotest.(check int) "saturates at 15" 15 taken

let test_btb_reset () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Btb.exercise btb 7 ~taken:true;
  Btb.reset_counters btb;
  Alcotest.(check (pair int int)) "reset" (0, 0) (Btb.counts btb 7)

let test_btb_eviction () =
  (* 64 entries, 2-way: 32 sets; pcs 1, 33, 65 collide in set 1 *)
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Btb.exercise btb 1 ~taken:true;
  Btb.exercise btb 33 ~taken:true;
  ignore (Btb.counts btb 1);
  (* 33 is now LRU; inserting 65 evicts it *)
  Btb.exercise btb 65 ~taken:true;
  Alcotest.(check (pair int int)) "evicted reads zero" (0, 0) (Btb.counts btb 33);
  Alcotest.(check (pair int int)) "survivor keeps count" (1, 0) (Btb.counts btb 1)

let test_btb_occupancy_saturation () =
  let btb = Btb.create ~entries:64 ~assoc:2 in
  Alcotest.(check int) "capacity" 64 (Btb.entry_count btb);
  Alcotest.(check int) "empty" 0 (Btb.valid_entries btb);
  Btb.exercise btb 1 ~taken:true;
  Btb.exercise btb 2 ~taken:false;
  Alcotest.(check int) "two valid" 2 (Btb.valid_entries btb);
  Alcotest.(check int) "none saturated" 0 (Btb.saturated_entries btb);
  (* pin both edges of branch 1 at the 4-bit maximum *)
  for _ = 1 to 20 do
    Btb.exercise btb 1 ~taken:true;
    Btb.exercise btb 1 ~taken:false
  done;
  Alcotest.(check int) "one fully saturated entry" 1 (Btb.saturated_entries btb);
  Btb.reset_counters btb;
  Alcotest.(check int) "reset clears saturation" 0 (Btb.saturated_entries btb);
  Alcotest.(check int) "entries stay valid across reset" 2
    (Btb.valid_entries btb)

let test_watchpoints () =
  let w = Watchpoints.create ~size:1024 in
  let entry = Watchpoints.watch w ~lo:100 ~hi:110 ~site:7 in
  Alcotest.(check bool) "inside" true (Watchpoints.is_watched w 105);
  Alcotest.(check bool) "hi exclusive" false (Watchpoints.is_watched w 110);
  Alcotest.(check (list int)) "hit site" [ 7 ]
    (Watchpoints.hit_sites w ~is_write:false 100);
  Watchpoints.undo w entry;
  Alcotest.(check bool) "undone" false (Watchpoints.is_watched w 105)

let test_watchpoint_modes () =
  let w = Watchpoints.create ~size:1024 in
  let _ =
    Watchpoints.watch ~mode:Watchpoints.Watch_write w ~lo:50 ~hi:60 ~site:1
  in
  let _ =
    Watchpoints.watch ~mode:Watchpoints.Watch_read w ~lo:50 ~hi:60 ~site:2
  in
  Alcotest.(check (list int)) "write hits write-mode" [ 1 ]
    (Watchpoints.hit_sites w ~is_write:true 55);
  Alcotest.(check (list int)) "read hits read-mode" [ 2 ]
    (Watchpoints.hit_sites w ~is_write:false 55)

let test_watchpoints_unwatch_undo () =
  let w = Watchpoints.create ~size:1024 in
  let _ = Watchpoints.watch w ~lo:10 ~hi:20 ~site:1 in
  let removed = Watchpoints.unwatch w ~lo:10 ~hi:20 in
  Alcotest.(check bool) "removed" false (Watchpoints.is_watched w 15);
  Watchpoints.undo w removed;
  Alcotest.(check bool) "restored" true (Watchpoints.is_watched w 15)

(* The O(1) filter against the list oracle: random watch/unwatch sequences
   with overlapping, empty, inverted and out-of-memory ranges, undone
   newest first like an NT-Path squash. After every operation, [watched]
   equals [is_watched] at every address of the memory and is false around
   it; once every entry is undone nothing is watched. *)
type wp_op = Watch of int * int | Unwatch of int * int | Undo

let wp_size = 2100 (* three pages, the last one partial *)

let wp_op_gen =
  let open QCheck.Gen in
  let bound =
    frequency
      [
        (6, int_range (-40) (wp_size + 40));
        (1, oneofl [ min_int; -1; 0; wp_size; max_int ]);
      ]
  in
  frequency
    [
      (5, map2 (fun lo hi -> Watch (lo, hi)) bound bound);
      (2, map2 (fun lo hi -> Unwatch (lo, hi)) bound bound);
      (3, return Undo);
    ]

let wp_op_print = function
  | Watch (lo, hi) -> Printf.sprintf "watch [%d, %d)" lo hi
  | Unwatch (lo, hi) -> Printf.sprintf "unwatch [%d, %d)" lo hi
  | Undo -> "undo"

let prop_watch_filter_matches_oracle =
  QCheck.Test.make ~name:"watch filter = range-list oracle" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list wp_op_print)
       QCheck.Gen.(list_size (int_bound 25) wp_op_gen))
    (fun ops ->
      let w = Watchpoints.create ~size:wp_size in
      let agrees () =
        let ok = ref true in
        for addr = -8 to wp_size + 8 do
          let expected =
            addr >= 0 && addr < wp_size && Watchpoints.is_watched w addr
          in
          if Watchpoints.watched w addr <> expected then ok := false
        done;
        !ok
      in
      let journal = ref [] in
      let step op =
        (match op with
         | Watch (lo, hi) ->
           journal := Watchpoints.watch w ~lo ~hi ~site:0 :: !journal
         | Unwatch (lo, hi) ->
           journal := Watchpoints.unwatch w ~lo ~hi :: !journal
         | Undo ->
           (match !journal with
            | entry :: rest ->
              Watchpoints.undo w entry;
              journal := rest
            | [] -> ()));
        agrees ()
      in
      List.for_all step ops
      && begin
        List.iter (Watchpoints.undo w) !journal;
        Watchpoints.is_empty w && agrees ()
      end)

let test_report_log () =
  let log = Report.create () in
  Report.file log ~site:1 ~origin:Report.Taken_path ~pc:10 ~insn_index:100
    ~cycle:110;
  Report.file log ~site:2 ~origin:(Report.Nt_path 3) ~pc:20 ~insn_index:200
    ~cycle:7;
  Report.file log ~site:2 ~origin:(Report.Nt_path 4) ~pc:20 ~insn_index:300
    ~cycle:9;
  Alcotest.(check int) "count" 3 (Report.count log);
  Alcotest.(check (list int)) "distinct" [ 1; 2 ] (Report.distinct_sites log);
  Alcotest.(check (list int)) "nt sites" [ 2 ] (Report.sites_from_nt_paths log);
  Alcotest.(check (list int)) "taken sites" [ 1 ]
    (Report.sites_from_taken_path log);
  Report.clear log;
  Alcotest.(check int) "cleared" 0 (Report.count log)

let test_context_regs () =
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  let ctx = Context.create ~l1:c ~pc:0 ~sp:1000 in
  Alcotest.(check int) "sp" 1000 (Context.get_reg ctx Reg.sp);
  Context.set_reg ctx Reg.zero 55;
  Alcotest.(check int) "zero stays zero" 0 (Context.get_reg ctx Reg.zero);
  Context.set_reg ctx (Reg.tmp 0) 42;
  Alcotest.(check int) "t0" 42 (Context.get_reg ctx (Reg.tmp 0))

let test_overlay_sandbox () =
  let m = mem () in
  Memory.write m 20 7;
  let sb = Context.make_sandbox ~path_id:1 ~line_limit:100 ~words_per_line:8 in
  Alcotest.(check bool) "write ok" true (Context.sandbox_write sb m 20 99);
  Alcotest.(check int) "memory unchanged" 7 (Memory.read m 20);
  let c = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
  let ctx = Context.create ~l1:c ~pc:0 ~sp:0 in
  Context.enter_sandbox ctx sb;
  Alcotest.(check int) "overlay read" 99 (Context.read_mem ctx m 20);
  Alcotest.(check int) "non-written falls through" 0 (Context.read_mem ctx m 21)

let test_overlay_line_limit () =
  let m = mem () in
  let sb = Context.make_sandbox ~path_id:1 ~line_limit:2 ~words_per_line:8 in
  Alcotest.(check bool) "line 1" true (Context.sandbox_write sb m 16 1);
  Alcotest.(check bool) "line 2" true (Context.sandbox_write sb m 24 1);
  Alcotest.(check bool) "same line ok" true (Context.sandbox_write sb m 25 1);
  Alcotest.(check bool) "third line overflows" false
    (Context.sandbox_write sb m 32 1);
  Alcotest.(check int) "dirty lines" 3 (Context.dirty_line_count sb)

(* An overlay's tables start small and grow with what a path writes:
   sized up front for the Table-2 L1's line limit they were 49K words, paid
   by every engine run whether it spawned or not. Growth must keep every
   buffered word, and a reset must hide a grown table's words from the next
   path. *)
let test_overlay_pays_for_what_it_buffers () =
  let c = Machine_config.default in
  let line_limit = Machine_config.l1_lines c in
  let words_per_line = Machine_config.words_per_line c in
  let sb, create_words =
    allocated_words (fun () ->
        Context.make_sandbox ~path_id:1 ~line_limit ~words_per_line)
  in
  Alcotest.(check bool)
    (Printf.sprintf "create: %d words" create_words)
    true (create_words < 256);
  let m = Memory.create ~globals_words:100 ~heap_words:8192 ~stack_words:0 in
  (* the first line boundary in the heap *)
  let base =
    (m.Memory.heap_base + words_per_line - 1) / words_per_line * words_per_line
  in
  let lines = line_limit - 12 in
  let words = lines * words_per_line in
  for i = 0 to words - 1 do
    if not (Context.sandbox_write sb m (base + i) (i + 1)) then
      Alcotest.failf "write %d of %d overflowed" i words
  done;
  Alcotest.(check int) "dirty lines" lines (Context.dirty_line_count sb);
  let wrong = ref 0 in
  for i = 0 to words - 1 do
    if Context.sandbox_read sb m (base + i) <> i + 1 then incr wrong;
    if Memory.read m (base + i) <> 0 then incr wrong
  done;
  Alcotest.(check int) "words read back, memory untouched" 0 !wrong;
  Context.reset_sandbox sb ~path_id:2;
  Alcotest.(check int) "reset: no dirty lines" 0 (Context.dirty_line_count sb);
  Alcotest.(check int) "reset: reads fall through" 0
    (Context.sandbox_read sb m (base + 5));
  ignore (Context.sandbox_write sb m (base + 5) 77);
  Alcotest.(check int) "second path reads its word" 77
    (Context.sandbox_read sb m (base + 5));
  Alcotest.(check int) "and only its word" 0 (Context.sandbox_read sb m (base + 6));
  Alcotest.(check int) "second path: one dirty line" 1
    (Context.dirty_line_count sb);
  Alcotest.(check int) "memory still untouched" 0 (Memory.read m (base + 5))

(* A hand-built program skips the compiler's bound on the globals segment;
   [Program.make] holds it, so no machine is ever created over a space that
   would wrap past [max_int]. *)
let test_globals_bound_at_create () =
  let program globals_words = Program.make ~globals_words [| Insn.Halt |] in
  List.iter
    (fun words ->
      match program words with
      | exception Program.Invalid_program _ -> ()
      | _ -> Alcotest.failf "%d globals words accepted" words)
    [ Program.max_globals_words + 1; 4611686018427387868; -1 ];
  ignore (Machine.create (program Program.max_globals_words))

let tests =
  [
    Alcotest.test_case "memory layout" `Quick test_memory_layout;
    Alcotest.test_case "memory null page" `Quick test_memory_null_page;
    Alcotest.test_case "memory out of range" `Quick test_memory_out_of_range;
    Alcotest.test_case "memory read/write" `Quick test_memory_read_write;
    Alcotest.test_case "memory pays for writes only" `Quick
      test_memory_pays_for_writes_only;
    Alcotest.test_case "cache pays for lines it fills" `Quick
      test_cache_pays_for_lines_it_fills;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "cache versioning" `Quick test_cache_versioning;
    Alcotest.test_case "cache read hit keeps committed" `Quick
      test_cache_read_hit_keeps_committed;
    Alcotest.test_case "cache write hit takes ownership" `Quick
      test_cache_write_hit_takes_ownership;
    Alcotest.test_case "cache read fill takes ownership" `Quick
      test_cache_read_fill_takes_ownership;
    Alcotest.test_case "cache occupancy" `Quick test_cache_occupancy;
    Alcotest.test_case "cache no-allocate" `Quick test_cache_no_allocate;
    Alcotest.test_case "cache negative address" `Quick test_cache_negative_address;
    Alcotest.test_case "btb counters" `Quick test_btb_counters;
    Alcotest.test_case "btb saturation" `Quick test_btb_saturation;
    Alcotest.test_case "btb reset" `Quick test_btb_reset;
    Alcotest.test_case "btb eviction" `Quick test_btb_eviction;
    Alcotest.test_case "btb occupancy and saturation" `Quick
      test_btb_occupancy_saturation;
    Alcotest.test_case "watchpoints" `Quick test_watchpoints;
    Alcotest.test_case "watchpoint modes" `Quick test_watchpoint_modes;
    Alcotest.test_case "watchpoints unwatch undo" `Quick test_watchpoints_unwatch_undo;
    QCheck_alcotest.to_alcotest prop_watch_filter_matches_oracle;
    Alcotest.test_case "report log" `Quick test_report_log;
    Alcotest.test_case "context registers" `Quick test_context_regs;
    Alcotest.test_case "overlay sandbox" `Quick test_overlay_sandbox;
    Alcotest.test_case "overlay line limit" `Quick test_overlay_line_limit;
    Alcotest.test_case "overlay pays for what it buffers" `Quick
      test_overlay_pays_for_what_it_buffers;
    Alcotest.test_case "globals bound at create" `Quick
      test_globals_bound_at_create;
  ]
