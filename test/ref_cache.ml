(* A test-only model of the versioned set-associative cache: the oracle
   for [Cache]'s MRU line memo, its tag filter and its journal-indexed
   owner operations. It shares no code with [Cache]: flat arrays, an LRU
   clock that ticks on every access, fill on miss with invalid ways first,
   a version tag (owner) per line, and squash and owned-lines as
   sweeps over every line. No memo, no filter, no pages, no journals.

   The state it exposes is the cache's canonical snapshot: per line in
   set/way order, its tag, valid bit, owner and LRU rank among
   its set's valid lines (-1 when invalid). A squashed line keeps its tag
   and reads owner 0; a never-filled line reads tag 0, owner 0. *)

let committed_owner = 0

type t = {
  nsets : int;
  assoc : int;
  words_per_line : int;
  tags : int array;  (* per line, [set * assoc + way] *)
  valid : bool array;
  owners : int array;
  stamps : int array;  (* clock at the last touch *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ~size_kb ~assoc ~line_bytes =
  let lines = size_kb * 1024 / line_bytes in
  {
    nsets = lines / assoc;
    assoc;
    words_per_line = line_bytes / Machine_config.word_bytes;
    tags = Array.make lines 0;
    valid = Array.make lines false;
    owners = Array.make lines committed_owner;
    stamps = Array.make lines 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let set_of t laddr = ((laddr mod t.nsets) + t.nsets) mod t.nsets

(* The way of [set] holding [laddr], if any. *)
let find t set laddr =
  let rec go w =
    if w = t.assoc then None
    else
      let i = (set * t.assoc) + w in
      if t.valid.(i) && t.tags.(i) = laddr then Some i else go (w + 1)
  in
  go 0

(* The first invalid way of [set], else its least recently touched one. *)
let victim t set =
  let base = set * t.assoc in
  let best = ref base in
  for i = base to base + t.assoc - 1 do
    if t.valid.(!best) && ((not t.valid.(i)) || t.stamps.(i) < t.stamps.(!best))
    then best := i
  done;
  !best

(* One access to word [addr]: [true] on a hit. A write tags the line with
   [owner]; a fill always does; a read hit leaves the tag alone. *)
let access t addr ~owner ~write ~allocate =
  t.clock <- t.clock + 1;
  let laddr = addr / t.words_per_line in
  let set = set_of t laddr in
  match find t set laddr with
  | Some i ->
    t.stamps.(i) <- t.clock;
    if write then t.owners.(i) <- owner;
    t.hits <- t.hits + 1;
    true
  | None ->
    if allocate then begin
      let i = victim t set in
      t.valid.(i) <- true;
      t.tags.(i) <- laddr;
      t.owners.(i) <- owner;
      t.stamps.(i) <- t.clock
    end;
    t.misses <- t.misses + 1;
    false

(* Apply [f] to every valid line tagged [owner]; how many there were. *)
let sweep t ~owner f =
  let n = ref 0 in
  Array.iteri
    (fun i v ->
      if v && t.owners.(i) = owner then begin
        f i;
        incr n
      end)
    t.valid;
  !n

let gang_invalidate t ~owner =
  sweep t ~owner (fun i ->
      t.valid.(i) <- false;
      t.owners.(i) <- committed_owner)

let owned_lines t ~owner = sweep t ~owner ignore

let snapshot t =
  Array.init (Array.length t.tags) (fun i ->
      let rank =
        if not t.valid.(i) then -1
        else begin
          let base = i - (i mod t.assoc) in
          let r = ref 0 in
          for j = base to base + t.assoc - 1 do
            if t.valid.(j) && t.stamps.(j) < t.stamps.(i) then incr r
          done;
          !r
        end
      in
      (t.tags.(i), t.valid.(i), t.owners.(i), rank))

let hits t = t.hits
let misses t = t.misses
