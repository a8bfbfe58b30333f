(* The Coverage Observatory (DESIGN.md §15): turns one finished engine run
   into an explanation of its coverage — which CFG edges stayed uncovered
   and *why* (frontier attribution), how much of the prime-path universe
   the run covered, and where execution time actually went (fast tier vs
   hooked step, deopt causes, cache fast-path occupancy).

   A snapshot is rendered to its final JSON string inside the worker domain
   that ran the workload, from deterministic inputs only (coverage bitmaps,
   BTB state, simulation counters — never wall-clock), so a parallel sweep
   collects byte-identical snapshots in nondeterministic order and
   [save_dir] restores a canonical order, exactly like the NT-Path trace
   capture.

   Two sections of the JSON — "tiers" and "cache" — describe how the
   simulator ran (fast-tier occupancy, deopt causes, memo and filter hits)
   rather than the simulated program. A run has one execution mode, so
   every section is a deterministic output; CI pins a whole sweep's
   snapshots by digest ([bench/sweep_artifacts.md5]). *)

let schema_version = 1

(* ---- Frontier attribution ------------------------------------------------ *)

(* Why an uncovered user branch edge stayed uncovered. Every uncovered edge
   gets exactly one cause, decided in this order:

   - [site-unreached]: the branch never executed anywhere — neither
     direction of it is in the combined coverage set.
   - [spawn-budget]: a spawn of exactly this edge was suppressed by the CMP
     outstanding-path budget ([MaxNumNTPaths]) at least once.
   - [no-spawning]: the site executed under a Baseline (no NT-Path) run.
   - [spawn-threshold]: the branch executed on the taken path (its other
     direction is taken-covered), yet no NT-Path was ever spawned on this
     edge — the BTB exercise counter never sat below the spawn threshold at
     any execution (or the spawn policy never selected it).
   - [nt-terminated:<cause>]: the site was reached only inside NT-Paths.
     A spawned edge is covered at spawn ([Nt_path.run] records the forced
     edge), so the uncovered direction belongs to a branch some NT-Path
     *passed through* taking the other direction; we blame the termination
     cause of the NT-Path that first covered the sibling edge (tracked by
     [Coverage.nt_first_seq] while the observatory is armed).
   - [nt-unattributed]: the sibling is NT-covered but carries no sequence
     stamp — only possible when the run executed without the observatory
     armed (a snapshot of a run made without [Engine.run ~obs:true]). *)

type frontier_entry = {
  fr_pc : int;
  fr_dir : bool;
  fr_line : int;
  fr_func : string;
  fr_cause : string;
  fr_btb : (int * int) option;  (* final (taken, nontaken) counters *)
}

let attribute ~(program : Program.t) ~(machine : Machine.t)
    ~(result : Engine.result) ~(config : Pe_config.t) =
  let coverage = result.Engine.coverage in
  let skipped = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace skipped e ()) result.Engine.skipped_edges;
  let nt_records = Array.of_list result.Engine.nt_records in
  let cause_of pc dir =
    let sibling = not dir in
    if
      not
        (Coverage.covered_edge coverage pc dir
        || Coverage.covered_edge coverage pc sibling)
    then "site-unreached"
    else if Hashtbl.mem skipped ((2 * pc) + if dir then 1 else 0) then
      "spawn-budget"
    else if config.Pe_config.mode = Pe_config.Baseline then "no-spawning"
    else if Coverage.covered_taken_edge coverage pc sibling then
      "spawn-threshold"
    else begin
      let seq = Coverage.nt_first_seq coverage pc sibling in
      if seq >= 1 && seq <= Array.length nt_records then
        "nt-terminated:"
        ^ Nt_path.termination_name nt_records.(seq - 1).Nt_path.termination
      else "nt-unattributed"
    end
  in
  let branches = List.sort_uniq compare program.Program.user_branches in
  List.concat_map
    (fun pc ->
      List.filter_map
        (fun dir ->
          if Coverage.covered_edge coverage pc dir then None
          else
            Some
              {
                fr_pc = pc;
                fr_dir = dir;
                fr_line = Program.line_of_pc program pc;
                fr_func =
                  Option.value ~default:"" (Program.function_of_pc program pc);
                fr_cause = cause_of pc dir;
                fr_btb = Btb.probe_counts machine.Machine.btb pc;
              })
        [ false; true ])
    branches

(* ---- Prime-path statistics (memoized per compiled program) --------------- *)

(* [Workload.compile] memoizes compiled programs per configuration, so the
   same [Program.t] instance flows through every run of a workload variant;
   keying the CFG + prime-path enumeration on physical equality makes the
   static analysis a once-per-program cost instead of once-per-run. Below
   it, the expensive half — the node-sequence enumeration — is shared by
   CFG *shape* (structural equality): detector and mode variants of one
   source compile to distinct programs whose user-code graphs are
   isomorphic with shifted pcs, and [Cfg.enumerate_nodes] only reads the
   shape. A concurrent miss on two domains computes the (deterministic)
   result twice and keeps one — harmless. *)
let prime_memo : (Program.t * (Cfg.t * Cfg.paths)) list ref = ref []
let shape_memo : (int list array * Cfg.node_paths) list ref = ref []
let prime_mutex = Mutex.create ()

let nodes_for cfg =
  let shape = Cfg.shape cfg in
  let find () =
    List.find_opt (fun (s, _) -> s = shape) !shape_memo
  in
  Mutex.lock prime_mutex;
  let hit = find () in
  Mutex.unlock prime_mutex;
  match hit with
  | Some (_, np) -> np
  | None ->
    let np = Cfg.enumerate_nodes cfg in
    Mutex.lock prime_mutex;
    (match find () with
     | Some (_, np') ->
       Mutex.unlock prime_mutex;
       np'
     | None ->
       shape_memo := (shape, np) :: !shape_memo;
       Mutex.unlock prime_mutex;
       np)

let primes_for program =
  let find () =
    List.find_opt (fun (p, _) -> p == program) !prime_memo
  in
  Mutex.lock prime_mutex;
  let hit = find () in
  Mutex.unlock prime_mutex;
  match hit with
  | Some (_, v) -> v
  | None ->
    let cfg = Cfg.of_program program in
    let paths = Cfg.paths_of_nodes cfg (nodes_for cfg) in
    let v = (cfg, paths) in
    Mutex.lock prime_mutex;
    (match find () with
     | Some (_, v') ->
       Mutex.unlock prime_mutex;
       v'
     | None ->
       prime_memo := (program, v) :: !prime_memo;
       Mutex.unlock prime_mutex;
       v)

(* ---- Snapshot ------------------------------------------------------------ *)

type t = { label : string; json : string }

let label s = s.label
let to_json s = s.json

let jint = string_of_int
let jstr = Jsonu.jstr
let jfloat = Jsonu.jfloat
let jobj = Jsonu.jobj
let jarr = Jsonu.jarr

let snapshot ~label ~(program : Program.t) ~(machine : Machine.t)
    ~(result : Engine.result) ~(config : Pe_config.t) =
  let coverage = result.Engine.coverage in
  let tel = machine.Machine.telemetry in
  let frontier = attribute ~program ~machine ~result ~config in
  let causes =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun f ->
        Hashtbl.replace tbl f.fr_cause
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.fr_cause)))
      frontier;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let cfg, paths = primes_for program in
  let enumerated = Array.length paths.Cfg.all in
  let covered =
    Cfg.covered_count
      ~edge_covered:(Coverage.covered_edge coverage)
      ~block_covered:(Coverage.pc_line_covered coverage)
      cfg paths
  in
  let terminations =
    List.map
      (fun (k, n) -> (k, jint n))
      (Nt_path.termination_counts result.Engine.nt_records)
  in
  let c name = Telemetry.counter tel name in
  let taken_insns = result.Engine.taken_insns in
  let taken_fast = result.Engine.fast_insns in
  let nt_insns = c "nt.insns" in
  let nt_fast = c "nt.fast_insns" in
  let total = taken_insns + nt_insns in
  let fast_fraction =
    if total = 0 then 0.0
    else float_of_int (taken_fast + nt_fast) /. float_of_int total
  in
  let l1_hits = c "l1.primary.hits" in
  let l1_misses = c "l1.primary.misses" in
  let l1_memo = c "l1.primary.memo_hits" in
  let l1_total = l1_hits + l1_misses in
  let json =
    jobj
      [
        ("schema", jint schema_version);
        ("label", jstr label);
        ("mode", jstr (Pe_config.mode_name config.Pe_config.mode));
        ("outcome", jstr (Engine.outcome_name result.Engine.outcome));
        ( "edges",
          jobj
            [
              ("universe", jint (Coverage.edge_universe_size coverage));
              ("taken", jint (Coverage.taken_edges coverage));
              ("combined", jint (Coverage.combined_edges coverage));
            ] );
        ( "frontier",
          jarr
            (List.map
               (fun f ->
                 let bt, bn =
                   match f.fr_btb with Some (t, n) -> (t, n) | None -> (-1, -1)
                 in
                 jobj
                   [
                     ("pc", jint f.fr_pc);
                     ("dir", jint (if f.fr_dir then 1 else 0));
                     ("line", jint f.fr_line);
                     ("func", jstr f.fr_func);
                     ("cause", jstr f.fr_cause);
                     ("btb_taken", jint bt);
                     ("btb_nontaken", jint bn);
                   ])
               frontier) );
        ( "frontier_causes",
          jobj (List.map (fun (k, v) -> (k, jint v)) causes) );
        ( "prime_paths",
          jobj
            [
              ("enumerated", jint enumerated);
              ("covered", jint covered);
              ("truncated", jint paths.Cfg.truncated);
              ( "pct",
                jfloat
                  (if enumerated = 0 then 0.0
                   else 100.0 *. float_of_int covered /. float_of_int enumerated)
              );
            ] );
        ( "spawns",
          jobj
            [
              ("total", jint result.Engine.spawns);
              ("skipped", jint result.Engine.skipped_spawns);
              ("skipped_edges", jint (List.length result.Engine.skipped_edges));
              ("terminations", jobj terminations);
            ] );
        (* How the simulator ran: tier occupancy and cache fast-path
           attribution. *)
        ( "tiers",
          jobj
            [
              ("taken_insns", jint taken_insns);
              ("taken_fast", jint taken_fast);
              ("nt_insns", jint nt_insns);
              ("nt_fast", jint nt_fast);
              ("fast_fraction", jfloat fast_fraction);
              ( "deopt",
                jobj
                  [
                    ("branch", jint (c "obs.deopt.branch"));
                    ("syscall", jint (c "obs.deopt.syscall"));
                    ("watch", jint (c "obs.deopt.watch"));
                    ("detector", jint (c "obs.deopt.detector"));
                    ("fault", jint (c "obs.deopt.fault"));
                    ("other", jint (c "obs.deopt.other"));
                  ] );
              ("pinned_insns", jint (c "obs.pinned_insns"));
            ] );
        ( "cache",
          jobj
            [
              ("l1_hits", jint l1_hits);
              ("l1_misses", jint l1_misses);
              ("l1_memo_hits", jint l1_memo);
              ("l1_filter_hits", jint (c "l1.primary.filter_hits"));
              ( "memo_hit_rate",
                jfloat
                  (if l1_total = 0 then 0.0
                   else float_of_int l1_memo /. float_of_int l1_total) );
              ("l2_hits", jint (c "l2.hits"));
              ("l2_misses", jint (c "l2.misses"));
            ] );
        ( "btb",
          jobj
            [
              ("lookups", jint (Btb.lookups machine.Machine.btb));
              ("misses", jint (Btb.miss_count machine.Machine.btb));
              ( "saturated_entries",
                jint (Btb.saturated_entries machine.Machine.btb) );
              ("valid_entries", jint (Btb.valid_entries machine.Machine.btb));
            ] );
      ]
  in
  { label; json }

(* ---- Directory export (the same writer as the NT-Path trace's) ---------- *)

let save_dir ~dir snapshots =
  Artifact_dir.save ~dir ~prefix:"obs" ~ext:"json" ~newline:true snapshots
