(* A DIDUCE-style dynamic invariant detector (Hangal & Lam), one of the
   checker families the paper cites as beneficiaries of PathExpander.

   The detector watches every store to the program's global scalar state
   through the machine's store hook. In a *training* run it learns the value
   range each global ever takes; in a *monitored* run it flags stores
   outside the trained range (widened by a relative slack) as invariant
   violations. No assertions or annotations are needed, which makes it the
   cleanest demonstration of the paper's generality claim: PathExpander
   feeds any dynamic detector the non-taken paths, and anomalies on those
   paths surface as violations.

   Sandboxed stores are observed exactly like architectural ones (the
   monitoring happens at the access, before the sandbox decides the write's
   fate), so NT-Path anomalies are caught while their memory effects are
   still discarded — the monitor-memory-area principle. *)

type range = { mutable lo : int; mutable hi : int; mutable samples : int }

type violation = {
  addr : int;
  name : string;  (* nearest global symbol *)
  value : int;
  trained_lo : int;
  trained_hi : int;
  surprise : int;  (* distance outside the widened range, in range-spans *)
  on_nt_path : bool;
}

type t = {
  ranges : (int, range) Hashtbl.t;
  symbols : (string * int) list;  (* sorted by address, for naming *)
  globals_lo : int;
  globals_hi : int;
  mutable mode : [ `Training | `Monitoring ];
  mutable violations : violation list;
  slack_num : int;  (* range widened by slack_num/slack_den on each side *)
  slack_den : int;
}

(* Monitor the whole globals segment, word by word; violations are named by
   the nearest symbol at or below the address. *)
let create ?(slack_num = 1) ?(slack_den = 2) program =
  let symbols =
    List.sort
      (fun (_, a) (_, b) -> compare a b)
      program.Program.global_vars
  in
  {
    ranges = Hashtbl.create 256;
    symbols;
    globals_lo = Program.null_guard_words;
    globals_hi = Program.null_guard_words + program.Program.globals_words;
    mode = `Training;
    violations = [];
    slack_num;
    slack_den;
  }

let name_of t addr =
  let rec scan best = function
    | (name, a) :: rest when a <= addr -> scan (Some name) rest
    | _ -> best
  in
  Option.value ~default:"?" (scan None t.symbols)

let observe_training t addr value =
  match Hashtbl.find_opt t.ranges addr with
  | Some r ->
    if value < r.lo then r.lo <- value;
    if value > r.hi then r.hi <- value;
    r.samples <- r.samples + 1
  | None -> Hashtbl.replace t.ranges addr { lo = value; hi = value; samples = 1 }

let widened t r =
  let span = max 1 (r.hi - r.lo) in
  let slack = span * t.slack_num / t.slack_den in
  (r.lo - slack, r.hi + slack)

let observe_monitoring t ctx addr value =
  match Hashtbl.find_opt t.ranges addr with
  | None -> ()  (* never stored during training: no invariant to violate *)
  | Some r ->
    let lo, hi = widened t r in
    if value < lo || value > hi then begin
      let excess = if value < lo then lo - value else value - hi in
      let span = max 1 (r.hi - r.lo) in
      t.violations <-
        {
          addr;
          name = name_of t addr;
          value;
          trained_lo = r.lo;
          trained_hi = r.hi;
          surprise = excess / span;
          on_nt_path = Context.is_sandboxed ctx;
        }
        :: t.violations
    end

(* Install the detector on [machine]; its behaviour follows [t.mode]. The
   hook's range is the globals segment, so the fast tier stops only before
   a store into it. *)
let attach t machine =
  machine.Machine.store_hook <-
    Some
      {
        Machine.lo = t.globals_lo;
        hi = t.globals_hi;
        observe =
          (fun ctx addr value ->
            (* PathExpander's own predicated fix stores are not program
               stores *)
            if not ctx.Context.in_pred_fix then
              match t.mode with
              | `Training -> observe_training t addr value
              | `Monitoring -> observe_monitoring t ctx addr value);
      }

let start_monitoring t = t.mode <- `Monitoring

let violations t = List.rev t.violations

let distinct_violated_names t =
  List.sort_uniq compare (List.map (fun v -> v.name) t.violations)

let nt_path_violations t = List.filter (fun v -> v.on_nt_path) (violations t)
