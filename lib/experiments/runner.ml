(* Experiment registry: every table and figure of the evaluation, by id. *)

type experiment = {
  id : string;
  title : string;
  run : Exp_common.ctx -> unit;
}

let all =
  [
    { id = "fig1"; title = "Figure 1 motivating bug"; run = Exp_fig1.run };
    { id = "fig3"; title = "Crash/Unsafe-latency CDFs"; run = Exp_fig3.run };
    { id = "tab2"; title = "Simulated architecture parameters"; run = Exp_tab2.run };
    { id = "tab3"; title = "Applications and bugs"; run = Exp_tab3.run };
    { id = "tab4"; title = "Bug detection results"; run = Exp_tab4.run };
    { id = "tab5"; title = "Consistency-fixing effects"; run = Exp_tab5.run };
    { id = "cov1"; title = "Single-input branch coverage"; run = Exp_coverage.run };
    {
      id = "cov2";
      title = "Cumulative coverage over 50 inputs";
      run = (fun ctx -> Exp_cumulative.run ctx);
    };
    { id = "ovh1"; title = "Standard vs CMP overhead"; run = Exp_overhead.run };
    { id = "ovh2"; title = "Hardware vs software overhead"; run = Exp_sw_hw.run };
    { id = "par1"; title = "Parameter sensitivity"; run = Exp_params.run };
    { id = "abl1"; title = "NT-Path edge-following ablation"; run = Exp_ablation.run };
    {
      id = "ext1";
      title = "Future-work extensions (OS syscall sandboxing, random selection)";
      run = Exp_extensions.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids () = List.map (fun e -> e.id) all

type artifacts = {
  stdout : string;
  traces : (string * string) list;
  obs : (string * string) list;
  telemetry : Telemetry.t list;
}

(* The artifact lists are sorted (label, content): runs fanned out inside a
   leg finish in nondeterministic order, and the canonical order keeps
   stored bundles independent of it. *)
let capture spec e =
  let buf = Buffer.create 4096 in
  let ctx = Exp_common.context ~spec ~out:(Buffer.add_string buf) in
  e.run ctx;
  let traces, obs, telemetry = Exp_common.collected ctx in
  {
    stdout = Buffer.contents buf;
    traces = List.sort compare traces;
    obs = List.sort compare obs;
    telemetry;
  }

(* ---- Content-addressed result cache (DESIGN.md §16) ---------------------- *)

(* One cache entry per experiment leg: its complete deterministic artifact
   bundle — stdout, every flight-recorder trace, every observatory
   snapshot. Determinism is what makes a leg cacheable at all; the key
   names everything the bytes depend on, and anything it cannot name as
   data (the simulator code itself) is covered by the build-id axis, which
   invalidates on any rebuild. *)

(* Everything run-relevant in the workload registry, hashed once per
   process: the sources (all bug variants), inputs and NT-Path budgets. *)
let registry_fingerprint_memo = ref None

let registry_fingerprint () =
  match !registry_fingerprint_memo with
  | Some fp -> fp
  | None ->
    let fp =
      Resultcache.digest_hex
        (String.concat "," (List.map Workload.fingerprint Registry.all))
    in
    registry_fingerprint_memo := Some fp;
    fp

let experiment_key spec e =
  Resultcache.key
    [
      ("kind", "experiment");
      ("schema", string_of_int Resultcache.schema_version);
      ("build", Resultcache.build_id ());
      ("experiment", e.id);
      ("registry", registry_fingerprint ());
      ("pe_config", Pe_config.fingerprint Pe_config.default);
      ("spec", Run_spec.fingerprint spec);
    ]

(* Artifact bundles are flat (name, content) lists; the run label rides in
   the name behind a type prefix. Labels may repeat (the same app/mode
   under different experiment configs), which the list representation
   keeps intact. *)
let encode_artifacts a =
  {
    Resultcache.stdout = a.stdout;
    artifacts =
      List.map (fun (l, c) -> ("trace:" ^ l, c)) a.traces
      @ List.map (fun (l, c) -> ("obs:" ^ l, c)) a.obs;
  }

let decode_artifacts (b : Resultcache.bundle) =
  let strip prefix name =
    let n = String.length prefix in
    if String.length name >= n && String.sub name 0 n = prefix then
      Some (String.sub name n (String.length name - n))
    else None
  in
  let pick prefix =
    List.filter_map
      (fun (name, content) ->
        Option.map (fun l -> (l, content)) (strip prefix name))
      b.Resultcache.artifacts
  in
  {
    stdout = b.Resultcache.stdout;
    traces = pick "trace:";
    obs = pick "obs:";
    telemetry = [];
  }

(* Probe every leg serially on this domain (the cache is cheap), run the
   misses — fanned across [spec.jobs] domains; nested fan-out inside a leg
   then degrades to serial in the pool's workers, so the domain count
   stays bounded — store them, and print every leg's stdout in list
   (presentation) order, so the bytes are the same at any [--jobs]. *)
let run ?cache ?(out = print_string) spec experiments =
  let key e = experiment_key spec e in
  let probe e =
    Option.bind cache (fun cache ->
        Option.map decode_artifacts (Resultcache.find cache (key e)))
  in
  let probes = List.map (fun e -> (e, probe e)) experiments in
  let misses =
    List.filter_map
      (fun (e, hit) -> if Option.is_none hit then Some e else None)
      probes
  in
  let fresh = Pool.map ~jobs:spec.Run_spec.jobs (capture spec) misses in
  Option.iter
    (fun cache ->
      List.iter2
        (fun e a -> Resultcache.store cache (key e) (encode_artifacts a))
        misses fresh)
    cache;
  (* Reassemble in list order: hits from the cache, misses from the fresh
     runs, positionally. *)
  let rec assemble probes fresh =
    match (probes, fresh) with
    | [], _ -> []
    | (_, Some a) :: rest, fresh -> a :: assemble rest fresh
    | (_, None) :: rest, a :: fresh -> a :: assemble rest fresh
    | (_, None) :: _, [] -> assert false
  in
  let results = assemble probes fresh in
  List.iter (fun a -> out a.stdout) results;
  results

let run_list ?out spec experiments = run ?out spec experiments
let run_cached ~cache ?out spec experiments = run ~cache ?out spec experiments
