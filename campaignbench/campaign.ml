(* Self-checking campaign benchmark.

   Two closed-loop workloads (one client, one domain, no disk I/O), each a
   fixed seeded sequence of operations. The op count is a pure function of
   the workload and the requested seconds, never of the clock, so every run
   of a (workload, seed, seconds) triple times the same population. Layers
   are timed from outside, at their public entry points:

   - compiler:  [Compile.compile]
   - machine:   [Machine.create] + [Machine.release] (includes ISA decode)
   - engine:    [Engine.run], one timer per mode; work is read back from the
                run's telemetry sink with [Telemetry.counter]
   - detectors: [Analysis.analyze]

   The result cache, the Observatory and the experiment runner are left
   unmeasured on purpose: their only traffic is warm replays that need a
   cold sweep (with disk writes) as set-up. So are the Section 7.4 overhead
   rows (099.go, 164.gzip and 175.vpr in baseline, standard and CMP mode):
   their memory-heavy runs changed speed by up to 1.65x between runs of the
   same code on a shared 2-vCPU VM, more than any bound could absorb, so
   the CMP mode goes unmeasured too. *)

(* ---------- workloads ---------- *)

type workload = Detect | Compile_run

let workloads = [ Detect; Compile_run ]

let workload_name = function
  | Detect -> "detect"
  | Compile_run -> "compile-run"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) workloads

(* Ops per requested second. Nominal rates measured on a 2-vCPU x86 VM with
   a release build, whose speed wandered between 107 and 194 detect ops/s
   and 229 and 341 compile-run ops/s over a few hours; they only size the
   fixed population, so a slower host takes longer but times the same ops. *)
let ops_per_second = function
  | Detect -> 140.
  | Compile_run -> 280.

(* Every latency percentile reported needs ten ops beyond it; p90 is the
   highest reported, so 100 ops is the floor. *)
let min_ops = 100

let op_count workload ~seconds =
  let nominal = ops_per_second workload *. float_of_int seconds in
  max min_ops (int_of_float (Float.round nominal))

(* Taken-path instruction budget per engine run, about twice the longest
   terminating run (099.go: 0.93M instructions in detect; no compile-run run
   comes near it), so only runaway runs reach it: a planted bug looping on
   some inputs, such as print_tokens v2 on a "; note" comment. Runaways are
   kept and counted in [engine.fuel_exhausted_runs]. A detect run draws
   about one per thousand ops, and a runaway's standard-mode run spawns
   NT-Paths all the way to the budget, so the budget sets how much a few
   runaways weigh: at the engine's own 100M default each would cost as much
   as ~400 ordinary ops, and at 10M the runaways alone moved detect's
   summed sim_overhead_pct between 146% and 186% across seeds. *)
let fuel = 2_000_000

(* Seeded draws that keep a run's mix fixed: a deck is dealt in shuffled
   order and reshuffled when empty, so every element appears equally often
   (to within one deck) and only the order and the inputs depend on the
   seed. *)
let deck rng items =
  let hand = ref [] in
  let rec deal () =
    match !hand with
    | x :: rest ->
      hand := rest;
      x
    | [] ->
      hand := Rng.shuffle rng items;
      deal ()
  in
  deal

(* ---------- layer tracer ---------- *)

type layer = Compiler | Machine_layer | Detectors | Engine_of of Pe_config.mode

(* The benchmark runs the baseline and standard modes only. *)
let mode_index = function
  | Pe_config.Baseline -> 0
  | Pe_config.Standard -> 1
  | Pe_config.Cmp -> invalid_arg "campaign: CMP mode is not measured"

let layer_index = function
  | Compiler -> 0
  | Machine_layer -> 1
  | Detectors -> 2
  | Engine_of mode -> 3 + mode_index mode

let layer_count = 5

type tracer = {
  on : bool;
  secs : float array;
  calls : int array;
  words : float array;  (** minor words allocated inside the layer *)
}

let tracer on =
  {
    on;
    secs = Array.make layer_count 0.;
    calls = Array.make layer_count 0;
    words = Array.make layer_count 0.;
  }

(* Run [f] as one call into [layer]. With tracing off this is a plain call:
   untraced passes read the clock only around whole ops. [call:false] adds
   time without counting a call (Machine.release belongs to its create). *)
let timed ?(call = true) tr layer f =
  if not tr.on then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    let i = layer_index layer in
    tr.secs.(i) <- tr.secs.(i) +. (t1 -. t0);
    tr.words.(i) <- tr.words.(i) +. (Gc.minor_words () -. w0);
    if call then tr.calls.(i) <- tr.calls.(i) + 1;
    r
  end

(* ---------- simulated statistics ---------- *)

(* Everything here is a deterministic model output: it depends only on the
   programs and inputs, never on host timing. *)
type sim = {
  mutable taken_insns : int;
  mutable nt_insns : int;
  mutable fast_taken : int;
  mutable fast_nt : int;
  mutable segments : int;
  mutable spawns : int;
  mutable new_edges : int;  (** combined minus taken-path edges *)
  mutable fuel_exhausted : int;
  mutable l1_accesses : int;
  mutable l1_misses : int;
  mutable memo_hits : int;
  mutable squashed_lines : int;
  mode_insns : int array;  (** simulated instructions per engine mode *)
  mutable pe_base_cycles : int;  (** baseline runs paired with a PE run *)
  mutable std_cycles : int;
  mutable coverage_gain : float;  (** summed over standard runs, pp *)
  mutable std_runs : int;
  mutable verdicts : int;
  mutable detected : int;
  mutable false_positives : int;
  digest : Buffer.t;  (** canonical text of every simulated outcome *)
}

let new_sim () =
  {
    taken_insns = 0;
    nt_insns = 0;
    fast_taken = 0;
    fast_nt = 0;
    segments = 0;
    spawns = 0;
    new_edges = 0;
    fuel_exhausted = 0;
    l1_accesses = 0;
    l1_misses = 0;
    memo_hits = 0;
    squashed_lines = 0;
    mode_insns = Array.make 2 0;
    pe_base_cycles = 0;
    std_cycles = 0;
    coverage_gain = 0.;
    std_runs = 0;
    verdicts = 0;
    detected = 0;
    false_positives = 0;
    digest = Buffer.create 4096;
  }

(* The per-op context: who is timing and where simulated counts go. *)
type ctx = { tr : tracer; sim : sim }

let new_ctx ~trace = { tr = tracer trace; sim = new_sim () }

(* Add [s] into [into]: counts are summed and digest text appended, so
   folding the passes of consecutive op ranges in op order gives what one
   pass over all of them would have. *)
let add_sim into s =
  into.taken_insns <- into.taken_insns + s.taken_insns;
  into.nt_insns <- into.nt_insns + s.nt_insns;
  into.fast_taken <- into.fast_taken + s.fast_taken;
  into.fast_nt <- into.fast_nt + s.fast_nt;
  into.segments <- into.segments + s.segments;
  into.spawns <- into.spawns + s.spawns;
  into.new_edges <- into.new_edges + s.new_edges;
  into.fuel_exhausted <- into.fuel_exhausted + s.fuel_exhausted;
  into.l1_accesses <- into.l1_accesses + s.l1_accesses;
  into.l1_misses <- into.l1_misses + s.l1_misses;
  into.memo_hits <- into.memo_hits + s.memo_hits;
  into.squashed_lines <- into.squashed_lines + s.squashed_lines;
  Array.iteri
    (fun m x -> into.mode_insns.(m) <- into.mode_insns.(m) + x)
    s.mode_insns;
  into.pe_base_cycles <- into.pe_base_cycles + s.pe_base_cycles;
  into.std_cycles <- into.std_cycles + s.std_cycles;
  into.coverage_gain <- into.coverage_gain +. s.coverage_gain;
  into.std_runs <- into.std_runs + s.std_runs;
  into.verdicts <- into.verdicts + s.verdicts;
  into.detected <- into.detected + s.detected;
  into.false_positives <- into.false_positives + s.false_positives;
  Buffer.add_buffer into.digest s.digest

(* Fold one finished engine run into the simulated statistics. *)
let account sim ~label ~mode (machine : Machine.t) (r : Engine.result) =
  let c = Telemetry.counter machine.Machine.telemetry in
  let nt = c "nt.insns" in
  sim.taken_insns <- sim.taken_insns + r.Engine.taken_insns;
  sim.nt_insns <- sim.nt_insns + nt;
  sim.fast_taken <- sim.fast_taken + r.Engine.fast_insns;
  sim.fast_nt <- sim.fast_nt + c "nt.fast_insns";
  sim.segments <- sim.segments + r.Engine.fast_segments;
  sim.spawns <- sim.spawns + r.Engine.spawns;
  let taken_edges = Coverage.taken_edges r.Engine.coverage in
  let combined_edges = Coverage.combined_edges r.Engine.coverage in
  sim.new_edges <- sim.new_edges + (combined_edges - taken_edges);
  if r.Engine.outcome = `Fuel_exhausted then
    sim.fuel_exhausted <- sim.fuel_exhausted + 1;
  let l1 prefix =
    let hits = c (prefix ^ ".hits") and misses = c (prefix ^ ".misses") in
    sim.l1_accesses <- sim.l1_accesses + hits + misses;
    sim.l1_misses <- sim.l1_misses + misses;
    sim.memo_hits <- sim.memo_hits + c (prefix ^ ".memo_hits")
  in
  l1 "l1.primary";
  for i = 1 to machine.Machine.config.Machine_config.cores do
    l1 (Printf.sprintf "l1.core%d" i)
  done;
  sim.squashed_lines <- sim.squashed_lines + c "nt.squashed_lines";
  let m = mode_index mode in
  sim.mode_insns.(m) <- sim.mode_insns.(m) + r.Engine.taken_insns + nt;
  Printf.bprintf sim.digest
    "%s %s %s cyc=%d/%d insns=%d/%d spawns=%d edges=%d/%d out=%s\n" label
    (Pe_config.mode_name mode)
    (Engine.outcome_name r.Engine.outcome)
    r.Engine.total_cycles r.Engine.taken_cycles r.Engine.taken_insns nt
    r.Engine.spawns taken_edges combined_edges
    (Digest.to_hex (Digest.string (Machine.output machine)))

(* Fold the baseline and standard runs of one binary on one input into the
   NT-Path model metrics. *)
let record_pe sim ~(base : Engine.result) ~(std : Engine.result) =
  sim.pe_base_cycles <- sim.pe_base_cycles + base.Engine.total_cycles;
  sim.std_cycles <- sim.std_cycles + std.Engine.total_cycles;
  let cov = std.Engine.coverage in
  sim.coverage_gain <-
    sim.coverage_gain +. Coverage.combined_pct cov -. Coverage.taken_pct cov;
  sim.std_runs <- sim.std_runs + 1

(* One engine run of [program] on [input]: create, run, hand the live
   machine to [inspect] (analysis, output), release. *)
let run_mode ctx ~label ~config ~input (program : Program.t) inspect =
  let tr = ctx.tr in
  let machine =
    timed tr Machine_layer (fun () -> Machine.create ~input program)
  in
  let mode = config.Pe_config.mode in
  let r =
    timed tr (Engine_of mode) (fun () ->
        Engine.run ~config ~fuel machine)
  in
  account ctx.sim ~label ~mode machine r;
  let x = inspect machine r in
  timed ~call:false tr Machine_layer (fun () -> Machine.release machine);
  x

let output_of machine (r : Engine.result) = (Machine.output machine, r)

(* The NT-Path sandbox invariant: forced paths never change what the program
   prints or how it ends. *)
let same_behaviour (out1, r1) (out2, r2) =
  r1.Engine.outcome = r2.Engine.outcome && String.equal out1 out2

let fresh_compile ~detector ~level source =
  Compile.compile ~options:{ Codegen.detector; fixing = true } ~level source

(* ---------- plans ---------- *)

(* Reference behaviour of one compile-run program: the -O0 build's output
   and exit outcome on the default input. *)
type reference = { ref_output : string; ref_outcome : Engine.outcome }

type plan = {
  ops : (ctx -> bool) array;  (** each returns whether its checks passed *)
  references : (string, reference) Hashtbl.t;  (** compile-run only *)
}

(* detect: a stream of Table-4 verdicts. *)

let detect_variants () =
  List.concat_map
    (fun (w : Workload.t) ->
      List.concat_map
        (fun (bug : Bug.t) ->
          List.filter_map
            (fun det ->
              if Bug.detectable_by bug det then Some (w, bug, det) else None)
            [ Codegen.Ccured; Codegen.Iwatcher; Codegen.Assertions ])
        w.Workload.bugs)
    Registry.buggy_apps

let detect_op (w : Workload.t) (bug : Bug.t) det compiled ~label ~input ctx =
  let program = compiled.Compile.program in
  let verdict mode =
    let config = Workload.pe_config ~mode w in
    run_mode ctx ~label ~config ~input program (fun machine r ->
        let a =
          timed ctx.tr Detectors (fun () ->
              Analysis.analyze ~compiled ~machine ~bug)
        in
        (output_of machine r, a))
  in
  let base, base_a = verdict Pe_config.Baseline in
  let std, std_a = verdict Pe_config.Standard in
  let sim = ctx.sim in
  record_pe sim ~base:(snd base) ~std:(snd std);
  let fp = Analysis.false_positive_count std_a in
  sim.verdicts <- sim.verdicts + 1;
  if Analysis.detected std_a then sim.detected <- sim.detected + 1;
  sim.false_positives <- sim.false_positives + fp;
  Printf.bprintf sim.digest "%s %s verdict=%b/%b fp=%d\n" label
    (Codegen.detector_name det) (Analysis.detected base_a)
    (Analysis.detected std_a) fp;
  same_behaviour base std

let setup_detect rng ~ops =
  let variants =
    List.map
      (fun ((w : Workload.t), (bug : Bug.t), det) ->
        let source = w.Workload.source ~bug:(Some bug.Bug.version) in
        (w, bug, det, fresh_compile ~detector:det ~level:Opt.O0 source))
      (detect_variants ())
  in
  let op i (w, bug, det, compiled) ~input =
    let label = Printf.sprintf "%d:%s" i bug.Bug.id in
    detect_op w bug det compiled ~label ~input
  in
  let draw = deck rng variants in
  let ops =
    Array.init ops (fun i ->
        let ((w, _, _, _) as v) = draw () in
        op i v ~input:(w.Workload.gen_input rng))
  in
  (* Warm-up: one untimed verdict per distinct program fills the memory
     arena pool and the decode memo. *)
  List.iter
    (fun ((w, _, _, _) as v) ->
      let ctx = new_ctx ~trace:false in
      ignore (op (-1) v ~input:w.Workload.default_input ctx))
    variants;
  { ops; references = Hashtbl.create 1 }

(* compile-run: a cold edit-compile-run. *)

let compile_run_apps () =
  List.filter (fun (w : Workload.t) -> w != Registry.go) Registry.buggy_apps

let detectors =
  [ Codegen.No_detector; Codegen.Ccured; Codegen.Iwatcher; Codegen.Assertions ]

let reference_key (w : Workload.t) bug det =
  Printf.sprintf "%s/%s/%s" w.Workload.name
    (match bug with None -> "none" | Some v -> "v" ^ string_of_int v)
    (Codegen.detector_name det)

let baseline_run ctx ~label (w : Workload.t) (program : Program.t) =
  let config = Workload.pe_config ~mode:Pe_config.Baseline w in
  run_mode ctx ~label ~config ~input:w.Workload.default_input program
    output_of

let compile_run_op references w ~key ~source ~det ~level ~label ctx =
  let compiled =
    timed ctx.tr Compiler (fun () -> fresh_compile ~detector:det ~level source)
  in
  let output, r = baseline_run ctx ~label w compiled.Compile.program in
  let expected = Hashtbl.find references key in
  r.Engine.outcome = expected.ref_outcome
  && String.equal output expected.ref_output

let setup_compile_run rng ~ops =
  let app = deck rng (compile_run_apps ()) in
  let det = deck rng detectors in
  let level = deck rng [ Opt.O0; Opt.O1; Opt.O2 ] in
  let draws =
    Array.init ops (fun _ ->
        let (w : Workload.t) = app () in
        let versions =
          None :: List.map (fun (b : Bug.t) -> Some b.Bug.version) w.Workload.bugs
        in
        let bug = List.nth versions (Rng.int rng (List.length versions)) in
        let det = det () and level = level () in
        (w, bug, det, level))
  in
  (* Sources and -O0 references, once per distinct program; the reference
     runs also warm the memory arena pool. *)
  let sources = Hashtbl.create 64 in
  let references = Hashtbl.create 64 in
  Array.iter
    (fun ((w : Workload.t), bug, det, _) ->
      let key = reference_key w bug det in
      if not (Hashtbl.mem sources key) then begin
        let source = w.Workload.source ~bug in
        Hashtbl.add sources key source;
        let compiled = fresh_compile ~detector:det ~level:Opt.O0 source in
        let ref_output, r =
          baseline_run (new_ctx ~trace:false) ~label:key w
            compiled.Compile.program
        in
        Hashtbl.add references key { ref_output; ref_outcome = r.Engine.outcome }
      end)
    draws;
  let ops =
    Array.mapi
      (fun i (w, bug, det, level) ->
        let key = reference_key w bug det in
        let label = Printf.sprintf "%d:%s/%s" i key (Opt.to_string level) in
        compile_run_op references w ~key ~source:(Hashtbl.find sources key)
          ~det ~level ~label)
      draws
  in
  { ops; references }

let setup workload ~seed ~ops =
  let rng = Rng.create (Hashtbl.hash (workload_name workload, seed)) in
  match workload with
  | Detect -> setup_detect rng ~ops
  | Compile_run -> setup_compile_run rng ~ops

(* ---------- measurement ---------- *)

type pass = {
  first : int;  (** plan index of the pass's first op *)
  latencies : float array;  (** seconds per op, in op order *)
  ok : bool array;  (** op passed its checks and raised nothing *)
  ctx : ctx;
}

let new_pass ~first ~count ~trace =
  {
    first;
    latencies = Array.make count 0.;
    ok = Array.make count false;
    ctx = new_ctx ~trace;
  }

let run_op plan pass i =
  let j = i - pass.first in
  let t0 = Unix.gettimeofday () in
  let ok =
    try plan.ops.(i) pass.ctx
    with e ->
      Printf.eprintf "op %d raised %s\n%!" i (Printexc.to_string e);
      false
  in
  pass.latencies.(j) <- Unix.gettimeofday () -. t0;
  pass.ok.(j) <- ok

(* Run ops [first, first + count) once each, untraced. *)
let run_pass plan ~first ~count =
  let pass = new_pass ~first ~count ~trace:false in
  for i = first to first + count - 1 do
    run_op plan pass i
  done;
  pass

(* Run every op once untraced and once traced. The two executions of an op
   run back to back, in alternating order, so host speed drifting during
   the run reaches both passes alike and their difference reads as tracing
   overhead. *)
let run_paired plan =
  let count = Array.length plan.ops in
  let untraced = new_pass ~first:0 ~count ~trace:false in
  let traced = new_pass ~first:0 ~count ~trace:true in
  Array.iteri
    (fun i _ ->
      let first, second =
        if i mod 2 = 0 then (untraced, traced) else (traced, untraced)
      in
      run_op plan first i;
      run_op plan second i)
    plan.ops;
  (untraced, traced)

(* Ops that failed in any of [passes]. *)
let failed_ops passes =
  let failed = ref 0 in
  Array.iteri
    (fun i _ -> if List.exists (fun p -> not p.ok.(i)) passes then incr failed)
    (List.hd passes).ok;
  !failed

let sum a = Array.fold_left ( +. ) 0. a

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile a p = Stats.percentile (Array.to_list a) p

let ratio num den = Stats.ratio ~num ~den

let sim_digest sim = Digest.to_hex (Digest.string (Buffer.contents sim.digest))

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

(* Value reported for an NT-Path model metric on a workload whose ops run
   no NT-Paths or no detector (compile-run runs baseline mode only). The
   output format carries every metric on every workload, and a zero would
   make relative spreads undefined, so the marker is a constant 1. *)
let not_produced = 1.

let end_to_end ~setup_s ~heap_words ~latencies sim =
  let busy = sum latencies in
  let ms p = 1e3 *. percentile latencies p in
  let sim_insns = sim.taken_insns + sim.nt_insns in
  (* standard-mode simulated cycles over the paired baseline runs' *)
  let overhead =
    if sim.std_runs = 0 then not_produced
    else 100. *. (ratio sim.std_cycles sim.pe_base_cycles -. 1.)
  in
  let per_verdict x = if sim.verdicts = 0 then not_produced else x in
  [
    metric "throughput_ops_s" (float_of_int (Array.length latencies) /. busy) "1/s";
    metric "latency_p50_ms" (ms 50.) "ms";
    metric "latency_p90_ms" (ms 90.) "ms";
    metric "sim_minsts_s" (float_of_int sim_insns /. busy /. 1e6) "Minsts/s";
    metric "setup_s" setup_s "s";
    metric "heap_peak_mb" (float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6) "MB";
    metric "sim_overhead_pct" overhead "%";
    metric "coverage_gain_pp"
      (if sim.std_runs = 0 then not_produced
       else sim.coverage_gain /. float_of_int sim.std_runs)
      "pp";
    metric "detect_pct" (per_verdict (100. *. ratio sim.detected sim.verdicts)) "%";
    metric "false_positive_sites"
      (per_verdict (ratio sim.false_positives sim.verdicts))
      "sites";
  ]

let engine_modes = [ Pe_config.Baseline; Pe_config.Standard ]

let per_layer ~majors ~(untraced : pass) ~(traced : pass) =
  let tr = traced.ctx.tr and sim = traced.ctx.sim in
  let wall = sum traced.latencies in
  let share i = 100. *. tr.secs.(i) /. wall in
  let per_call i x = if tr.calls.(i) = 0 then 0. else x /. float_of_int tr.calls.(i) in
  let layer name l ~words =
    let i = layer_index l in
    [
      metric (name ^ ".ms_per_call") (per_call i (1e3 *. tr.secs.(i))) "ms";
      metric (name ^ ".share_pct") (share i) "%";
    ]
    @
    if words then
      [ metric (name ^ ".minor_mwords") (per_call i (tr.words.(i) /. 1e6)) "Mwords/call" ]
    else []
  in
  let engine mode =
    let i = layer_index (Engine_of mode) in
    let name = "engine." ^ Pe_config.mode_name mode in
    let insns = sim.mode_insns.(mode_index mode) in
    [
      metric (name ^ ".ms_per_run") (per_call i (1e3 *. tr.secs.(i))) "ms";
      metric (name ^ ".share_pct") (share i) "%";
      metric (name ^ ".ns_per_sim_insn")
        (if insns = 0 then 0. else 1e9 *. tr.secs.(i) /. float_of_int insns)
        "ns";
    ]
  in
  let engine_is = List.map (fun md -> layer_index (Engine_of md)) engine_modes in
  let engine_runs = List.fold_left (fun acc i -> acc + tr.calls.(i)) 0 engine_is in
  let engine_words = List.fold_left (fun acc i -> acc +. tr.words.(i)) 0. engine_is in
  let untraced_wall = sum untraced.latencies in
  let instrumented = sim.taken_insns + sim.nt_insns - sim.fast_taken - sim.fast_nt in
  let minsts x = float_of_int x /. 1e6 and count x = float_of_int x in
  layer "compiler" Compiler ~words:true
  @ layer "machine" Machine_layer ~words:true
  @ layer "detectors" Detectors ~words:false
  @ List.concat_map engine engine_modes
  @ [
      metric "engine.minor_mwords"
        (if engine_runs = 0 then 0.
         else engine_words /. 1e6 /. float_of_int engine_runs)
        "Mwords/run";
      metric "engine.taken_minsts" (minsts sim.taken_insns) "Minsts";
      metric "engine.nt_minsts" (minsts sim.nt_insns) "Minsts";
      metric "engine.instrumented_minsts" (minsts instrumented) "Minsts";
      metric "engine.fast_taken_frac" (ratio sim.fast_taken sim.taken_insns) "fraction";
      metric "engine.fast_nt_frac" (ratio sim.fast_nt sim.nt_insns) "fraction";
      metric "engine.segments" (count sim.segments) "count";
      metric "engine.spawns" (count sim.spawns) "count";
      metric "engine.new_edges_per_spawn" (ratio sim.new_edges sim.spawns) "edges/spawn";
      metric "engine.fuel_exhausted_runs" (count sim.fuel_exhausted) "count";
      metric "cache.memo_hit_rate" (ratio sim.memo_hits sim.l1_accesses) "fraction";
      metric "cache.l1_miss_rate" (ratio sim.l1_misses sim.l1_accesses) "fraction";
      metric "nt.squashed_lines" (count sim.squashed_lines) "count";
      metric "gc.major_collections" (count majors) "count";
      metric "unattributed_share_pct" (100. *. (wall -. sum tr.secs) /. wall) "%";
      metric "trace_overhead_pct"
        (100. *. (wall -. untraced_wall) /. untraced_wall)
        "%";
    ]

(* ---------- one benchmark run ---------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  digest : string;  (** MD5 of every simulated statistic of the run's ops *)
}

(* One cold set-up, as the first work of a fresh process pays it: heap
   growth, the memory-arena pool and the decode memo filled by the warm-up
   ops, and everything the plan prepares. *)
let timed_setup workload ~seed ~ops =
  let t0 = Unix.gettimeofday () in
  let plan = setup workload ~seed ~ops in
  (plan, Unix.gettimeofday () -. t0)

(* An untraced run cuts its op sequence into this many consecutive parts
   and runs each in a fresh process of its own, one after another. On a
   shared 2-vCPU VM the speed of one process is steady within it but
   differs by up to a third from the next process's (back-to-back runs of
   the same compile-run ops: 229-327 ops/s), so a run in one process
   measures mostly where that process landed. Eight processes per run cut
   the spread (IQR over median) of five such runs' throughput from 0.15 to
   0.03. Each part also pays one cold set-up, and setup_s is their median. *)
let parts = 8

(* What one part process reports. *)
type part = {
  setup_s : float;  (** the process's own cold set-up *)
  top_heap_words : int;  (** [Gc] top heap at the end of the part *)
  pass : pass;
}

(* The plan range [(first, count)] of part [part] of [ops] ops. *)
let part_range ~ops part =
  let first = part * ops / parts in
  (first, ((part + 1) * ops / parts) - first)

(* Part [part] of an untraced run, in this process: a cold set-up of the
   whole plan, then the part's ops. [tamper] edits the plan before it runs
   (tests corrupt references). *)
let run_part ?(tamper = ignore) workload ~seed ~ops ~part =
  let plan, setup_s = timed_setup workload ~seed ~ops in
  tamper plan;
  Gc.full_major ();
  let first, count = part_range ~ops part in
  let pass = run_pass plan ~first ~count in
  { setup_s; top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words; pass }

(* Run part [part] in a fresh process: [exe] with [args] plus [--part],
   which writes the part to its standard output with [Marshal]. Waits for
   the process to end. *)
let spawn_part ~exe args part =
  let argv = Array.of_list ((exe :: args) @ [ "--part"; string_of_int part ]) in
  let out, into = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe argv Unix.stdin into Unix.stderr in
  Unix.close into;
  let ic = Unix.in_channel_of_descr out in
  set_binary_mode_in ic true;
  let got : part option =
    try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
  in
  close_in ic;
  match (snd (Unix.waitpid [] pid), got) with
  | Unix.WEXITED 0, Some p -> p
  | _ -> failwith "campaignbench: part process failed"

(* The parts' passes as one pass over the whole op sequence. *)
let join_parts shares =
  let passes = List.map (fun s -> s.pass) shares in
  let cat field = Array.concat (List.map field passes) in
  let ctx = new_ctx ~trace:false in
  List.iter (fun p -> add_sim ctx.sim p.ctx.sim) passes;
  {
    first = 0;
    latencies = cat (fun p -> p.latencies);
    ok = cat (fun p -> p.ok);
    ctx;
  }

(* One run. Untraced, [spawn part] runs each part ([spawn_part] in a fresh
   process; tests run [run_part] in their own). Traced, the untraced and
   traced passes run paired in this process. *)
let measure ~spawn workload ~seed ~ops ~trace =
  let result passes ~digest metrics =
    let failed = failed_ops passes in
    let agree =
      List.for_all (fun p -> String.equal digest (sim_digest p.ctx.sim)) passes
    in
    { correct = failed = 0 && agree; attempted = ops; failed; metrics; digest }
  in
  if trace then begin
    let plan, _ = timed_setup workload ~seed ~ops in
    Gc.full_major ();
    let majors = (Gc.quick_stat ()).Gc.major_collections in
    let untraced, traced = run_paired plan in
    let majors = (Gc.quick_stat ()).Gc.major_collections - majors in
    (* Tracing must not move a single simulated statistic. *)
    result [ untraced; traced ]
      ~digest:(sim_digest untraced.ctx.sim)
      (per_layer ~majors ~untraced ~traced)
  end
  else begin
    let shares = List.init parts spawn in
    let p = join_parts shares in
    let setup_s =
      percentile (Array.of_list (List.map (fun s -> s.setup_s) shares)) 50.
    in
    let heap_words =
      List.fold_left (fun m s -> max m s.top_heap_words) 0 shares
    in
    result [ p ] ~digest:(sim_digest p.ctx.sim)
      (end_to_end ~setup_s ~heap_words ~latencies:p.latencies p.ctx.sim)
  end

(* The last line of a run: one JSON object, every value with all its
   digits. *)
let to_json o =
  let metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))
