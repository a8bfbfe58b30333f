(* Lightweight observability for simulator runs: named counters, float
   gauges, log-bucketed integer histograms and accumulating wall-clock
   timers, emitted as structured JSON (per run, or aggregated over a
   sweep).

   A sink belongs to exactly one run (one [Machine.t]); it is mutated from a
   single domain, so none of the per-sink operations lock. *)

type timer = {
  mutable total_s : float;
  mutable count : int;
  mutable max_s : float;
}

(* Log-bucketed histogram of non-negative integer observations. Bucket 0
   holds values <= 0; bucket i >= 1 holds [2^(i-1), 2^i - 1], so 63 buckets
   cover every OCaml int up to [max_int] (2^62 - 1 lands in bucket 62). *)
let hist_bucket_count = 63

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

type t = {
  mutable label : string;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
}

let create ?(label = "") () =
  {
    label;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 8;
    timers = Hashtbl.create 8;
  }

let set_label t label = t.label <- label
let label t = t.label

let count t name n =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace t.counters name (ref n)

let incr t name = count t name 1

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some r -> Some !r | None -> None

(* ---- Histograms --------------------------------------------------------- *)

let hist_bucket_index v =
  if v <= 0 then 0
  else begin
    (* 1 + floor(log2 v): the number of significant bits of v. *)
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits v 0
  end

let hist_bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

let empty_hist () =
  {
    h_count = 0;
    h_sum = 0;
    h_min = max_int;
    h_max = min_int;
    h_buckets = Array.make hist_bucket_count 0;
  }

let find_hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h = empty_hist () in
    Hashtbl.replace t.hists name h;
    h

let add_observation h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = hist_bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let observe t name v = add_observation (find_hist t name) v

(* One name lookup for a whole list; an empty list creates no histogram. *)
let observe_each t name f xs =
  if xs <> [] then begin
    let h = find_hist t name in
    List.iter (fun x -> add_observation h (f x)) xs
  end

let hist_count t name =
  match Hashtbl.find_opt t.hists name with Some h -> h.h_count | None -> 0

let hist_buckets t name =
  match Hashtbl.find_opt t.hists name with
  | None -> []
  | Some h ->
    let acc = ref [] in
    for i = hist_bucket_count - 1 downto 0 do
      if h.h_buckets.(i) > 0 then
        acc := (hist_bucket_lo i, h.h_buckets.(i)) :: !acc
    done;
    !acc

let timer_record t name dur =
  let tm =
    match Hashtbl.find_opt t.timers name with
    | Some tm -> tm
    | None ->
      let tm = { total_s = 0.0; count = 0; max_s = 0.0 } in
      Hashtbl.replace t.timers name tm;
      tm
  in
  tm.total_s <- tm.total_s +. dur;
  tm.count <- tm.count + 1;
  if dur > tm.max_s then tm.max_s <- dur

(* Time [f], accumulating its wall time under timer [name] whether it
   returns or raises. *)
let span t name f =
  let start = Unix.gettimeofday () in
  let finish () = timer_record t name (Unix.gettimeofday () -. start) in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let timer_total t name =
  match Hashtbl.find_opt t.timers name with Some tm -> tm.total_s | None -> 0.0

(* ---- JSON emission (via Jsonu; keys sorted so output is stable) --------- *)

let jstr = Jsonu.jstr
let jfloat = Jsonu.jfloat
let jobj = Jsonu.jobj

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters_json t =
  jobj (List.map (fun (k, r) -> (k, string_of_int !r)) (sorted_bindings t.counters))

let gauges_json t =
  jobj (List.map (fun (k, r) -> (k, jfloat !r)) (sorted_bindings t.gauges))

let hist_json h =
  let buckets = ref [] in
  for i = hist_bucket_count - 1 downto 0 do
    if h.h_buckets.(i) > 0 then
      buckets :=
        Printf.sprintf "[%d,%d]" (hist_bucket_lo i) h.h_buckets.(i) :: !buckets
  done;
  jobj
    [
      ("count", string_of_int h.h_count);
      ("sum", string_of_int h.h_sum);
      ("min", string_of_int (if h.h_count = 0 then 0 else h.h_min));
      ("max", string_of_int (if h.h_count = 0 then 0 else h.h_max));
      ("buckets", Jsonu.jarr !buckets);
    ]

(* A histogram exists only once observed, so none is empty. *)
let hists_json t =
  jobj (List.map (fun (k, h) -> (k, hist_json h)) (sorted_bindings t.hists))

let timers_json t =
  jobj
    (List.map
       (fun (k, tm) ->
         ( k,
           jobj
             [
               ("total_s", jfloat tm.total_s);
               ("count", string_of_int tm.count);
               ("max_s", jfloat tm.max_s);
             ] ))
       (sorted_bindings t.timers))

let to_json t =
  jobj
    [
      ("label", jstr t.label);
      ("counters", counters_json t);
      ("gauges", gauges_json t);
      ("hists", hists_json t);
      ("timers", timers_json t);
    ]

(* ---- Prometheus text exposition (DESIGN.md §15) -------------------------- *)

(* Metric names: Prometheus allows [a-zA-Z_:][a-zA-Z0-9_:]*; every sink key
   maps through a "pexp_" prefix with non-conforming characters folded to
   '_'. The mapping can collide ("a.b" and "a-b"), in which case the two
   series merge under one name — acceptable for the dotted names this
   codebase uses, which never differ only by separator. *)
let prom_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "pexp_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* One run's metrics in the Prometheus text exposition format, deterministic
   (sorted names, fixed float formatting), labelled {run="<label>"} so a
   server can expose many runs side by side. Counters and gauges map
   directly; timers expose accumulated seconds and invocation counts;
   log-bucketed histograms become cumulative-bucket histogram series with
   upper bounds at the bucket range tops. *)
let to_prometheus t =
  let b = Buffer.create 4096 in
  let run_label =
    if t.label = "" then "" else Printf.sprintf "{run=\"%s\"}" (prom_label_value t.label)
  in
  let series ?(labels = run_label) name typ value =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string b (Printf.sprintf "%s%s %s\n" name labels value)
  in
  List.iter
    (fun (k, r) -> series (prom_name k) "counter" (string_of_int !r))
    (sorted_bindings t.counters);
  List.iter
    (fun (k, r) -> series (prom_name k) "gauge" (jfloat !r))
    (sorted_bindings t.gauges);
  List.iter
    (fun (k, h) ->
      let name = prom_name k in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
      let cum = ref 0 in
      for i = 0 to hist_bucket_count - 1 do
        if h.h_buckets.(i) > 0 then begin
          cum := !cum + h.h_buckets.(i);
          (* bucket i covers up to 2^i - 1 (bucket 0: values <= 0) *)
          let le = if i = 0 then 0 else (1 lsl i) - 1 in
          let labels =
            if t.label = "" then Printf.sprintf "{le=\"%d\"}" le
            else
              Printf.sprintf "{run=\"%s\",le=\"%d\"}"
                (prom_label_value t.label) le
          in
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" name labels !cum)
        end
      done;
      let labels =
        if t.label = "" then "{le=\"+Inf\"}"
        else Printf.sprintf "{run=\"%s\",le=\"+Inf\"}" (prom_label_value t.label)
      in
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" name labels h.h_count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %d\n" name run_label h.h_sum);
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" name run_label h.h_count))
    (sorted_bindings t.hists);
  List.iter
    (fun (k, tm) ->
      let name = prom_name k in
      series (name ^ "_seconds_total") "counter" (jfloat tm.total_s);
      series (name ^ "_invocations_total") "counter" (string_of_int tm.count))
    (sorted_bindings t.timers);
  Buffer.contents b

(* ---- Reset --------------------------------------------------------------- *)

(* Return the sink to its just-created state (label kept): the snapshot-
   isolation contract for reusing one sink across runs. Per-machine sinks
   are fresh by construction ([Machine.create] allocates one per machine),
   so this exists for callers that deliberately reuse a sink — and for the
   regression test pinning that counters never bleed across runs. *)
let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.hists;
  Hashtbl.reset t.timers

(* ---- Aggregation over a sweep ------------------------------------------- *)

type dist = { sum : float; min_v : float; max_v : float; n : int }

let dist_add d v =
  match d with
  | None -> Some { sum = v; min_v = v; max_v = v; n = 1 }
  | Some d ->
    Some
      {
        sum = d.sum +. v;
        min_v = Float.min d.min_v v;
        max_v = Float.max d.max_v v;
        n = d.n + 1;
      }

let dist_json d =
  jobj
    [
      ("sum", jfloat d.sum);
      ("mean", jfloat (d.sum /. float_of_int d.n));
      ("min", jfloat d.min_v);
      ("max", jfloat d.max_v);
      ("runs", string_of_int d.n);
    ]

(* Aggregate many per-run sinks into one JSON object: counters and gauges
   become sum/mean/min/max distributions keyed by name; histograms merge
   bucket-wise; timers sum their totals and invocation counts. *)
let aggregate_json sinks =
  let cdists : (string, dist option ref) Hashtbl.t = Hashtbl.create 32 in
  let add tbl name v =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := dist_add !r v
    | None -> Hashtbl.replace tbl name (ref (dist_add None v))
  in
  let gdists : (string, dist option ref) Hashtbl.t = Hashtbl.create 32 in
  let ttotals : (string, timer) Hashtbl.t = Hashtbl.create 8 in
  let htotals : (string, hist) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun t ->
      Hashtbl.iter (fun k r -> add cdists k (float_of_int !r)) t.counters;
      Hashtbl.iter (fun k r -> add gdists k !r) t.gauges;
      Hashtbl.iter
        (fun k h ->
          let acc =
            match Hashtbl.find_opt htotals k with
            | Some acc -> acc
            | None ->
              let acc = empty_hist () in
              Hashtbl.replace htotals k acc;
              acc
          in
          acc.h_count <- acc.h_count + h.h_count;
          acc.h_sum <- acc.h_sum + h.h_sum;
          if h.h_min < acc.h_min then acc.h_min <- h.h_min;
          if h.h_max > acc.h_max then acc.h_max <- h.h_max;
          Array.iteri
            (fun i n -> acc.h_buckets.(i) <- acc.h_buckets.(i) + n)
            h.h_buckets)
        t.hists;
      Hashtbl.iter
        (fun k tm ->
          let acc =
            match Hashtbl.find_opt ttotals k with
            | Some acc -> acc
            | None ->
              let acc = { total_s = 0.0; count = 0; max_s = 0.0 } in
              Hashtbl.replace ttotals k acc;
              acc
          in
          acc.total_s <- acc.total_s +. tm.total_s;
          acc.count <- acc.count + tm.count;
          if tm.max_s > acc.max_s then acc.max_s <- tm.max_s)
        t.timers)
    sinks;
  let dists_json tbl =
    jobj
      (List.filter_map
         (fun (k, r) -> Option.map (fun d -> (k, dist_json d)) !r)
         (sorted_bindings tbl))
  in
  jobj
    [
      ("runs", string_of_int (List.length sinks));
      ("counters", dists_json cdists);
      ("gauges", dists_json gdists);
      ( "hists",
        jobj
          (List.map (fun (k, h) -> (k, hist_json h)) (sorted_bindings htotals))
      );
      ( "timers",
        jobj
          (List.map
             (fun (k, tm) ->
               ( k,
                 jobj
                   [
                     ("total_s", jfloat tm.total_s);
                     ("count", string_of_int tm.count);
                     ("max_s", jfloat tm.max_s);
                   ] ))
             (sorted_bindings ttotals)) );
    ]
