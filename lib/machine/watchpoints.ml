(* iWatcher-style hardware watchpoint unit: a set of address ranges, each
   associated with a report site. Every load/store is checked against the
   ranges; a hit triggers the associated monitoring check at small, fixed
   hardware cost. *)

type mode = Watch_read | Watch_write | Watch_both

type range = { lo : int; hi : int; site : int; mode : mode }

type t = { mutable ranges : range list }

type journal_entry = Added of range | Removed of range list

let create () = { ranges = [] }

let watch ?(mode = Watch_both) unit ~lo ~hi ~site =
  if hi < lo then invalid_arg "Watchpoints.watch: empty range";
  let r = { lo; hi; site; mode } in
  unit.ranges <- r :: unit.ranges;
  Added r

let unwatch unit ~lo ~hi =
  let removed, kept =
    List.partition (fun r -> r.lo >= lo && r.hi <= hi) unit.ranges
  in
  unit.ranges <- kept;
  Removed removed

let mode_matches mode ~is_write =
  match mode with
  | Watch_both -> true
  | Watch_read -> not is_write
  | Watch_write -> is_write

(* Report sites of every range containing [addr] whose mode covers this
   access kind. *)
let hit_sites unit ~is_write addr =
  List.filter_map
    (fun r ->
      if addr >= r.lo && addr < r.hi && mode_matches r.mode ~is_write then
        Some r.site
      else None)
    unit.ranges

let is_watched unit addr =
  List.exists (fun r -> addr >= r.lo && addr < r.hi) unit.ranges

let undo unit entry =
  match entry with
  | Added r -> unit.ranges <- List.filter (fun r' -> r' != r) unit.ranges
  | Removed rs -> unit.ranges <- rs @ unit.ranges

let count unit = List.length unit.ranges

(* O(1) emptiness test for the per-iteration fast-tier eligibility checks
   ([List.length] walks the list, and an [= 0] on it runs every engine-loop
   iteration). *)
let[@inline always] is_empty unit =
  match unit.ranges with [] -> true | _ :: _ -> false
