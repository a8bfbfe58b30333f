(* Shared plumbing for the experiment harness. *)

(* One experiment leg's explicit run state. The accumulators are written
   from whichever domain finished a run — [par_map] fans runs out — so the
   mutex guards them; the report text is only written from the leg's own
   domain, after its fan-outs return. *)
type ctx = {
  spec : Run_spec.t;
  out : string -> unit;
  lock : Mutex.t;
  mutable traces : (string * string) list;
  mutable snapshots : (string * string) list;
  mutable sinks : Telemetry.t list;
}

let context ~spec ~out =
  { spec; out; lock = Mutex.create (); traces = []; snapshots = []; sinks = [] }

let collected ctx =
  Mutex.protect ctx.lock (fun () ->
      (List.rev ctx.traces, List.rev ctx.snapshots, List.rev ctx.sinks))

let print ctx s = ctx.out s
let printf ctx fmt = Printf.ksprintf ctx.out fmt

let table ctx ?aligns ~header rows =
  ctx.out (Table.render ?aligns ~header rows ^ "\n")

let heading ctx title = printf ctx "\n=== %s ===\n" title

type run = {
  compiled : Compile.compiled;
  machine : Machine.t;
  result : Engine.result;
}

(* Every run owns its own [Machine.t], so runs are trivially independent;
   results come back in input order, making a parallel sweep
   byte-identical to a serial one. *)
let par_map ctx f xs = Pool.map ~jobs:ctx.spec.Run_spec.jobs f xs

let compile ctx ?detector ?fixing ?bug workload =
  Workload.compile ?detector ?fixing ~opt:ctx.spec.Run_spec.opt ?bug workload

let machine ctx ~input program =
  let recorder =
    if ctx.spec.Run_spec.trace then Recorder.create () else Recorder.disabled
  in
  Machine.create ~input ~recorder program

let engine ctx ~config machine =
  let spec = ctx.spec in
  let result = Engine.run ~obs:spec.Run_spec.obs ~config machine in
  let tel = machine.Machine.telemetry in
  let recorder = machine.Machine.recorder in
  (* Serialized here, on the run's own domain, so parallel sweeps render
     their traces in parallel. *)
  let trace =
    if Recorder.enabled recorder then
      let label = Telemetry.label tel in
      Some (label, Recorder.jsonl_of_dump (Recorder.dump ~label recorder))
    else None
  in
  Mutex.protect ctx.lock (fun () ->
      Option.iter (fun t -> ctx.traces <- t :: ctx.traces) trace;
      if spec.Run_spec.telemetry then ctx.sinks <- tel :: ctx.sinks);
  result

let run_app ctx ?(detector = Codegen.No_detector) ?(fixing = true) ?bug
    ?(mode = Pe_config.Standard) ?config ?input (workload : Workload.t) =
  let compiled = compile ctx ~detector ~fixing ?bug workload in
  let input = Option.value ~default:workload.Workload.default_input input in
  let machine = machine ctx ~input compiled.Compile.program in
  let config =
    match config with
    | Some c -> { c with Pe_config.fixing = c.Pe_config.fixing && fixing }
    | None ->
      let c = Workload.pe_config ~mode workload in
      { c with Pe_config.fixing }
  in
  Telemetry.set_label machine.Machine.telemetry
    (Printf.sprintf "%s/%s%s" workload.Workload.name
       (Pe_config.mode_name config.Pe_config.mode)
       (match bug with Some b -> Printf.sprintf "/v%d" b | None -> ""));
  let result = engine ctx ~config machine in
  if ctx.spec.Run_spec.obs then begin
    let snap =
      Obs.snapshot
        ~label:(Telemetry.label machine.Machine.telemetry)
        ~program:compiled.Compile.program ~machine ~result ~config
    in
    Mutex.protect ctx.lock (fun () ->
        ctx.snapshots <- (Obs.label snap, Obs.to_json snap) :: ctx.snapshots)
  end;
  { compiled; machine; result }

let detector_label = function
  | Codegen.Ccured -> "Software Tool (CCured)"
  | Codegen.Iwatcher -> "Hardware Tool (iWatcher)"
  | Codegen.Assertions -> "Assertions"
  | Codegen.No_detector -> "None"

(* Bugs of [workload] that [detector] can detect. *)
let bugs_for workload detector =
  List.filter (fun b -> Bug.detectable_by b detector) workload.Workload.bugs

let overhead_pct ~baseline ~with_pe =
  if baseline = 0 then 0.0
  else 100.0 *. float_of_int (with_pe - baseline) /. float_of_int baseline
