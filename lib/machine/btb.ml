(* Branch target buffer extended, as in the paper, with two 4-bit saturating
   exercise counters per entry — one per branch edge. A BTB miss is treated
   as if both counters were zero.

   Entry state is struct-of-arrays, like [Cache]'s lines: flat arrays
   indexed [set * assoc + way] instead of one record per entry. A 2K-entry
   BTB as records is 2K heap blocks built per machine; as flat arrays it is
   five allocations, and a lookup scans contiguous slots. *)

type t = {
  tags : int array;  (* per entry: branch pc *)
  valid : Bytes.t;  (* per entry: '\001' when valid *)
  taken : Bytes.t;  (* per entry: taken-edge counter *)
  nontaken : Bytes.t;  (* per entry: fallthrough-edge counter *)
  lrus : int array;  (* per entry: last-touch clock *)
  nsets : int;
  assoc : int;
  counter_max : int;
  mutable clock : int;
  mutable lookups : int;
  mutable misses : int;
}

let counter_bits = 4

let create ~entries ~assoc =
  if entries mod assoc <> 0 then invalid_arg "Btb.create: geometry";
  {
    tags = Array.make entries 0;
    valid = Bytes.make entries '\000';
    taken = Bytes.make entries '\000';
    nontaken = Bytes.make entries '\000';
    lrus = Array.make entries 0;
    nsets = entries / assoc;
    assoc;
    counter_max = (1 lsl counter_bits) - 1;
    clock = 0;
    lookups = 0;
    misses = 0;
  }

(* First entry of [pc]'s set. Branch pcs are code indices, never negative;
   the check keeps the unsafe accessors below in bounds regardless. *)
let set_base btb pc =
  if pc < 0 then invalid_arg "Btb: negative pc";
  (pc mod btb.nsets) * btb.assoc

let[@inline always] valid btb i = Bytes.unsafe_get btb.valid i = '\001'
let[@inline always] taken_count btb i = Char.code (Bytes.unsafe_get btb.taken i)

let[@inline always] nontaken_count btb i =
  Char.code (Bytes.unsafe_get btb.nontaken i)

(* Associative search as a top-level loop: an inner [let rec] would
   allocate a closure per lookup (no flambda), and [probe_exercise] runs
   this once per fast-tier branch. Returns the entry index, or -1. *)
let rec search_set btb pc limit i =
  if i >= limit then -1
  else if valid btb i && Array.unsafe_get btb.tags i = pc then i
  else search_set btb pc limit (i + 1)

let find btb pc =
  let base = set_base btb pc in
  search_set btb pc (base + btb.assoc) base

(* LRU victim of one set (invalid ways first), hoisted like [search_set];
   [best] travels as an argument instead of a heap [ref]. *)
let rec pick_victim btb limit best i =
  if i >= limit then best
  else
    let best =
      if not (valid btb best) then best
      else if not (valid btb i) then i
      else if Array.unsafe_get btb.lrus i < Array.unsafe_get btb.lrus best
      then i
      else best
    in
    pick_victim btb limit best (i + 1)

let victim btb pc =
  let base = set_base btb pc in
  pick_victim btb (base + btb.assoc) base (base + 1)

(* Exercise counts of the two edges of the branch at [pc]; (0, 0) on miss. *)
let counts btb pc =
  btb.lookups <- btb.lookups + 1;
  let i = find btb pc in
  if i >= 0 then begin
    btb.clock <- btb.clock + 1;
    Array.unsafe_set btb.lrus i btb.clock;
    (taken_count btb i, nontaken_count btb i)
  end
  else begin
    btb.misses <- btb.misses + 1;
    (0, 0)
  end

(* Install [pc] in its set's victim entry with both counters zero. *)
let install btb pc =
  let i = victim btb pc in
  Bytes.unsafe_set btb.valid i '\001';
  Array.unsafe_set btb.tags i pc;
  Bytes.unsafe_set btb.taken i '\000';
  Bytes.unsafe_set btb.nontaken i '\000';
  i

(* Stamp entry [i] and bump the executed edge's counter, saturating. *)
let bump btb i ~taken =
  Array.unsafe_set btb.lrus i btb.clock;
  let counters = if taken then btb.taken else btb.nontaken in
  let n = Char.code (Bytes.unsafe_get counters i) in
  Bytes.unsafe_set counters i (Char.unsafe_chr (min btb.counter_max (n + 1)))

(* Side-effect-free counter read for the fast tier: no lookup
   accounting, no LRU touch, no allocation on miss. The fast tier uses this
   to decide whether a branch is a spawn candidate *before* committing any
   BTB state change; a candidate (or a miss) stops the segment, and the
   branch hook then performs the real [counts]/[exercise] sequence. *)
let probe_counts btb pc =
  let i = find btb pc in
  if i >= 0 then Some (taken_count btb i, nontaken_count btb i) else None

let exercise btb pc ~taken =
  let i = find btb pc in
  let i = if i >= 0 then i else install btb pc in
  btb.clock <- btb.clock + 1;
  bump btb i ~taken

(* Fused [counts] + [exercise] with a single associative search, for the
   fast tier's non-candidate branches. Must leave the BTB in the
   exact observable state the two-call sequence would: same [lookups] and
   [misses] accounting, same net [clock] advance (+2 on hit: one LRU touch
   from the counts read, one from the exercise; +1 on miss: the counts read
   of a missing entry does not touch the clock), same final LRU stamp and
   counter values. *)
let lookup_exercise btb pc ~taken =
  btb.lookups <- btb.lookups + 1;
  let i = find btb pc in
  let i =
    if i >= 0 then begin
      btb.clock <- btb.clock + 2;
      i
    end
    else begin
      btb.misses <- btb.misses + 1;
      btb.clock <- btb.clock + 1;
      install btb pc
    end
  in
  bump btb i ~taken

(* Single-search combination of the fast tier's candidate test and counter
   update: equivalent to [probe_counts] followed — only when the branch is
   not a spawn candidate — by [lookup_exercise]. Returns [true] (candidate:
   BTB miss or forced-edge counter below [threshold]) leaving the BTB
   untouched, so the branch hook performs the real sequence; or commits
   [lookup_exercise]'s exact observable effect and returns [false]. No
   counter reaches [max_int], so that threshold answers without a
   search. *)
let probe_exercise btb pc ~taken ~threshold =
  threshold = max_int
  ||
  let i = find btb pc in
  if i < 0 then true
  else begin
    let forced = if taken then nontaken_count btb i else taken_count btb i in
    if forced < threshold then true
    else begin
      btb.lookups <- btb.lookups + 1;
      btb.clock <- btb.clock + 2;
      bump btb i ~taken;
      false
    end
  end

let reset_counters btb =
  Bytes.fill btb.taken 0 (Bytes.length btb.taken) '\000';
  Bytes.fill btb.nontaken 0 (Bytes.length btb.nontaken) '\000'

let lookups btb = btb.lookups
let miss_count btb = btb.misses
let entry_count btb = Array.length btb.tags

(* Valid entries, and those of them whose exercise counters can no longer
   discriminate cold edges: both counters pinned at the 4-bit maximum. One
   walk, no call per entry. *)
let occupancy btb =
  let valid_n = ref 0 and saturated = ref 0 in
  for i = 0 to entry_count btb - 1 do
    if valid btb i then begin
      incr valid_n;
      if
        taken_count btb i >= btb.counter_max
        && nontaken_count btb i >= btb.counter_max
      then incr saturated
    end
  done;
  (!valid_n, !saturated)

let valid_entries btb = fst (occupancy btb)
let saturated_entries btb = snd (occupancy btb)

(* BTB pressure for telemetry: occupancy (conflict evictions lose exercise
   history), miss rate, and the saturated-counter fraction. *)
let record_telemetry btb sink ~prefix =
  Telemetry.count sink (prefix ^ ".lookups") btb.lookups;
  Telemetry.count sink (prefix ^ ".misses") btb.misses;
  if btb.lookups > 0 then
    Telemetry.gauge sink (prefix ^ ".miss_rate")
      (float_of_int btb.misses /. float_of_int btb.lookups);
  let entries = float_of_int (entry_count btb) in
  let valid_n, saturated = occupancy btb in
  Telemetry.gauge sink (prefix ^ ".occupancy") (float_of_int valid_n /. entries);
  Telemetry.gauge sink (prefix ^ ".saturation")
    (float_of_int saturated /. entries)
