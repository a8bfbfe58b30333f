(* Unit tests for the utility library: deterministic RNG, statistics, table
   rendering, growable vectors. *)

let test_rng_determinism () =
  let a = Rng.create 42 in
  let b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 in
  let b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10);
    let r = Rng.int_in_range rng ~lo:5 ~hi:8 in
    Alcotest.(check bool) "in [5,8]" true (r >= 5 && r <= 8);
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_copy_independent () =
  let a = Rng.create 3 in
  let _ = Rng.bits a in
  let b = Rng.copy a in
  let va = Rng.bits a in
  let vb = Rng.bits b in
  Alcotest.(check int) "copy continues identically" va vb

let test_rng_choose_shuffle () =
  let rng = Rng.create 11 in
  let items = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 20 do
    Alcotest.(check bool) "chosen from list" true
      (List.mem (Rng.choose rng items) items)
  done;
  let shuffled = Rng.shuffle rng items in
  Alcotest.(check (list int)) "permutation" items (List.sort compare shuffled)

let test_rng_errors () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty choose"
    (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose rng []))

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-9)) "mean_int" 2.5 (Stats.mean_int [ 2; 3 ])

let test_stats_geomean () =
  Alcotest.(check (float 1e-6)) "geomean" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.geomean [])

let test_stats_percentile () =
  let xs = [ 5; 1; 3; 2; 4 ] in
  Alcotest.(check int) "median" 3 (Stats.percentile xs 50.0);
  Alcotest.(check int) "min" 1 (Stats.percentile xs 1.0);
  Alcotest.(check int) "max" 5 (Stats.percentile xs 100.0)

let test_stats_cdf () =
  let cdf = Stats.cdf ~points:[ 1; 2; 3 ] [ 1; 1; 2; 3 ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "cdf values"
    [ (1, 0.5); (2, 0.75); (3, 1.0) ]
    cdf

let test_stats_pct () =
  Alcotest.(check (float 1e-9)) "pct" 50.0 (Stats.pct ~num:1 ~den:2);
  Alcotest.(check (float 1e-9)) "den 0" 0.0 (Stats.pct ~num:1 ~den:0)

let test_table_render () =
  let out = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "y" ]; [ "zz"; "w" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0
    && String.index_opt out 'a' <> None
    && String.index_opt out '+' <> None);
  (* every line has the same width *)
  let lines = String.split_on_char '\n' out in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_arity_check () =
  Alcotest.check_raises "bad row arity"
    (Invalid_argument "Table.render: row arity differs from header") (fun () ->
      ignore (Table.render ~header:[ "a" ] [ [ "x"; "y" ] ]))

let test_table_formats () =
  Alcotest.(check string) "fpct" "12.3%" (Table.fpct 12.34);
  Alcotest.(check string) "f1" "1.5" (Table.f1 1.49);
  Alcotest.(check string) "f2" "1.23" (Table.f2 1.234)

let test_vec_basics () =
  let v = Vec.create ~dummy:0 in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 42);
  let arr = Vec.to_array v in
  Alcotest.(check int) "array length" 100 (Array.length arr);
  Alcotest.(check int) "array content" 99 arr.(99)

let test_vec_bounds () =
  let v = Vec.create ~dummy:0 in
  Vec.push v 1;
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set out of bounds" (Invalid_argument "Vec.set")
    (fun () -> Vec.set v (-1) 0)

let test_vec_iteri () =
  let v = Vec.create ~dummy:"" in
  List.iter (Vec.push v) [ "a"; "b"; "c" ];
  let acc = ref [] in
  Vec.iteri (fun i s -> acc := (i, s) :: !acc) v;
  Alcotest.(check (list (pair int string)))
    "iteri order"
    [ (0, "a"); (1, "b"); (2, "c") ]
    (List.rev !acc)

(* Every front end creates its --trace-dir and --obs-dir with parents; a
   path that cannot be created raises [Sys_error] only, which the front ends
   turn into a one-line message and exit 1. *)
let test_nested_dirs () =
  let base = Filename.temp_dir "pexp-test-dirs" "" in
  let art_dir = Filename.concat base (Filename.concat "a1" "a2") in
  let files =
    Artifact_dir.save ~dir:art_dir ~prefix:"t" ~ext:"txt" ~newline:false
      [ ("x", "1") ]
  in
  Alcotest.(check (list string)) "save into a created nested dir"
    [ Filename.concat art_dir "t-0000-x.txt" ] files;
  Alcotest.(check bool) "file written" true (Sys.file_exists (List.hd files));
  let file = Filename.concat base "regular" in
  close_out (open_out file);
  let under = Filename.concat file "sub" in
  let raises_sys_error f =
    match f () with _ -> false | exception Sys_error _ -> true
  in
  Alcotest.(check bool) "mkdir_p under a regular file: Sys_error" true
    (raises_sys_error (fun () -> Artifact_dir.mkdir_p under));
  Alcotest.(check bool) "save under a regular file: Sys_error" true
    (raises_sys_error (fun () ->
         Artifact_dir.save ~dir:under ~prefix:"t" ~ext:"txt" ~newline:false
           [ ("x", "1") ]));
  Alcotest.(check bool) "the file itself as a dir: Sys_error" true
    (raises_sys_error (fun () -> Artifact_dir.mkdir_p file));
  List.iter Sys.remove (file :: files);
  List.iter Sys.rmdir [ art_dir; Filename.dirname art_dir; base ]

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng different seeds" `Quick test_rng_different_seeds;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng choose/shuffle" `Quick test_rng_choose_shuffle;
    Alcotest.test_case "rng errors" `Quick test_rng_errors;
    Alcotest.test_case "stats mean" `Quick test_stats_mean;
    Alcotest.test_case "stats geomean" `Quick test_stats_geomean;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats cdf" `Quick test_stats_cdf;
    Alcotest.test_case "stats pct" `Quick test_stats_pct;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity" `Quick test_table_arity_check;
    Alcotest.test_case "table formats" `Quick test_table_formats;
    Alcotest.test_case "vec basics" `Quick test_vec_basics;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec iteri" `Quick test_vec_iteri;
    Alcotest.test_case "nested output directories" `Quick test_nested_dirs;
  ]
