(* Set-associative LRU cache used for timing. Lines carry the owner path-ID
   version tag from the paper (0 = committed data; the standard
   configuration's 1-bit Vtag is the special case of IDs {0,1}).

   Line state is struct-of-arrays held in pages: each page covers a fixed
   block of [page_sets] sets and stores flat [tags]/[valid]/[owners]/[lrus]
   arrays indexed [set_in_page * assoc + way], plus the page's [mru_way]
   filter. Every page of every cache starts as one shared, never-written
   zero page (tag 0, invalid, owner 0, lru 0 — exactly what fresh flat
   arrays read), and the first fill into a page swaps a fresh one in. A
   1 MB L2 has 32k lines of which a run fills a few dozen, so [create]
   pays for a page table, not for the capacity, and a run pays for the
   pages it fills. Line indices outside a page (journals, snapshots,
   sweeps) are global: [set * assoc + way].

   A squash is O(lines the path touched), not O(cache): every
   ownership acquisition journals the line index under its owner (the
   hardware analogue is the gang-clear circuitry of Section 4.3, which
   flash-clears the matching version tags in a handful of cycles — a
   full-array sweep in the simulator charged that cost once per spawn). A
   per-owner valid-line count keeps [owned_lines] O(1). Owners outside
   the tracked range fall back to full-array sweeps. *)

(* Owner version tags are 8-bit in the paper (ids 1..255, 0 = committed);
   the journal and counts track exactly that range, and any out-of-range
   owner falls back to a full-array sweep. *)
let tracked_owners = 256

(* The probe fast path (DESIGN.md §13) has two layers on top of the
   associative walk, both always on:

   - A two-entry *MRU line memo* (line address, set, line owner): the most
     recently touched line and the most recently touched line of one other
     set. A read of a memoized line — or a write whose owner already equals
     the line's tag — is a hit that would change *nothing* but the hit
     counter: the line is already MRU of its set (re-stamping it cannot
     reorder the set), no retag happens, no journal entry is due. Such
     accesses return after a couple of compares, skipping the clock tick and
     the LRU store entirely. Skipping ticks is sound because clock values
     are only ever *compared within a set* (victim selection): a line's
     stamp stays strictly above its set-mates' and below the clock, so the
     relative (observable) order is bit-for-bit what the unmemoized cache
     produces even though the absolute stamps differ. The two entries always
     name *different* sets, so each is the MRU of its set; the second entry
     is what keeps the memo alive across the stack-line / data-line
     alternation of typical inner loops.

   - A *direct-mapped tag filter*: one candidate way per set ([mru_way]),
     refreshed on every hit and fill (every LRU bump). A probe compares the
     candidate's tag first and only falls back to the associative walk when
     it misses. The filter is a verified hint — the probe re-checks tag and
     valid bit against the line arrays — so a stale candidate can cost a
     walk but never corrupt a lookup.

   The memo, unlike the filter, is trusted without re-validation, so every
   mutation that could invalidate or retag a memoized line outside
   [access_line] — gang-invalidate (squash, path-id-wrap cleanup) and its
   sweep — must kill it ([memo_kill]).
   Mutations *inside* [access_line] (fill, eviction, write-hit retag)
   refresh the memo as part of the access. *)

let committed_owner = 0

(* One block of [page_sets] consecutive sets; a line's slot is
   [set_in_page * assoc + way]. *)
type page = {
  tags : int array;  (* per line: cached line address *)
  valid : Bytes.t;  (* per line: '\001' when valid *)
  owners : int array;  (* per line: version tag *)
  lrus : int array;  (* per line: last-touch clock *)
  mru_way : int array;  (* per set: candidate way of the last hit/fill *)
}

let page_set_bits = 6
let page_sets = 1 lsl page_set_bits
let page_set_mask = page_sets - 1

let make_page ~sets ~assoc =
  let lines = sets * assoc in
  {
    tags = Array.make lines 0;
    valid = Bytes.make lines '\000';
    owners = Array.make lines committed_owner;
    lrus = Array.make lines 0;
    mru_way = Array.make sets 0;
  }

(* The never-written page every page starts as. Its arrays must span a
   whole page of the cache that uses it, so this holds the largest one any
   [create] has needed: every zero page reads the same, whatever its size.
   Racing creates may each build their own; each cache compares against
   the one it was created with. *)
let zero_page = Atomic.make (make_page ~sets:page_sets ~assoc:1)

let zero_page_for ~assoc =
  let z = Atomic.get zero_page in
  if Bytes.length z.valid >= page_sets * assoc then z
  else begin
    let z = make_page ~sets:page_sets ~assoc in
    Atomic.set zero_page z;
    z
  end

type t = {
  pages : page array;  (* per [page_sets] sets; [zero] until first fill *)
  zero : page;
  page_lines : int;  (* page_sets * assoc: global line index -> page *)
  nsets : int;
  assoc : int;
  words_per_line : int;
  line_shift : int;  (* log2 words_per_line, or -1 when not a power of two *)
  set_mask : int;  (* nsets - 1 when a power of two, or -1 *)
  (* per owner: lines that took its tag, the first [journal_len] slots of
     [journals]; every owner starts on the shared empty array *)
  journals : int array array;
  journal_len : int array;
  owner_count : int array;  (* per owner: valid lines currently tagged *)
  mutable valid_count : int;  (* valid lines: the occupancy gauge *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  (* fast-path attribution (subsets of [hits]): memo-layer hits — including
     batched [memo_probe]+[add_hits] credits — and verified tag-filter hits *)
  mutable memo_hits : int;
  mutable filter_hits : int;
  (* MRU line memo, entry 0 newest. [memo_laddr*] is the line address or
     [min_int] (never a real line address) when dead; [memo_owner*] mirrors
     the line's current owner tag; [memo_set*] are distinct whenever both
     entries are live (dead sentinels -1/-2 preserve the invariant). *)
  mutable memo_laddr0 : int;
  mutable memo_set0 : int;
  mutable memo_owner0 : int;
  mutable memo_laddr1 : int;
  mutable memo_set1 : int;
  mutable memo_owner1 : int;
}

let log2_pow2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  if n > 0 && n land (n - 1) = 0 then go n 0 else -1

let create ~size_kb ~assoc ~line_bytes =
  let lines = size_kb * 1024 / line_bytes in
  if lines mod assoc <> 0 then invalid_arg "Cache.create: geometry";
  let nsets = lines / assoc in
  let words_per_line = line_bytes / Machine_config.word_bytes in
  let zero = zero_page_for ~assoc in
  {
    pages = Array.make ((nsets + page_set_mask) lsr page_set_bits) zero;
    zero;
    page_lines = page_sets * assoc;
    nsets;
    assoc;
    words_per_line;
    line_shift = log2_pow2 words_per_line;
    set_mask = (if log2_pow2 nsets >= 0 then nsets - 1 else -1);
    journals = Array.make tracked_owners [||];
    journal_len = Array.make tracked_owners 0;
    owner_count = Array.make tracked_owners 0;
    valid_count = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    memo_hits = 0;
    filter_hits = 0;
    memo_laddr0 = min_int;
    memo_set0 = -1;
    memo_owner0 = -1;
    memo_laddr1 = min_int;
    memo_set1 = -2;
    memo_owner1 = -1;
  }

(* Out of line: a page's first fill is rare, and [access_line] is the
   simulator's hottest function. A fresh page stores only the sets a page
   of this cache can address. *)
let[@inline never] fresh_page cache pi =
  let page = make_page ~sets:(min cache.nsets page_sets) ~assoc:cache.assoc in
  Array.unsafe_set cache.pages pi page;
  page

(* Line [i] (a global index) lives in page [i / page_lines] at slot
   [i mod page_lines]. An untouched line reads from the zero page. *)
let page_of cache i = cache.pages.(i / cache.page_lines)
let slot_of cache i = i mod cache.page_lines

(* Kill the MRU memo (both entries). Called by every mutation path that can
   invalidate or retag lines without going through [access_line]: squash
   (gang-invalidate, including the defensive path-id-wrap cleanup when it
   actually releases lines), indexed or swept. The filter
   needs no such care — it is re-verified on every probe. *)
let memo_kill cache =
  cache.memo_laddr0 <- min_int;
  cache.memo_set0 <- -1;
  cache.memo_owner0 <- -1;
  cache.memo_laddr1 <- min_int;
  cache.memo_set1 <- -2;
  cache.memo_owner1 <- -1

(* Note line [laddr] of [set], now tagged [owner], as the most recent
   access. Entry 0 is the newest; entry 1 holds the previous newest *of a
   different set*. A same-set note overwrites entry 0 in place (the old
   entry-0 line is no longer its set's MRU); a different-set note shifts
   entry 0 down, which also disposes of any stale same-set entry 1. *)
let[@inline always] memo_note cache laddr set owner =
  if cache.memo_set0 <> set then begin
    cache.memo_laddr1 <- cache.memo_laddr0;
    cache.memo_set1 <- cache.memo_set0;
    cache.memo_owner1 <- cache.memo_owner0
  end;
  cache.memo_laddr0 <- laddr;
  cache.memo_set0 <- set;
  cache.memo_owner0 <- owner

let line_addr cache addr =
  if cache.line_shift >= 0 && addr >= 0 then addr lsr cache.line_shift
  else addr / cache.words_per_line

let set_index cache laddr =
  if cache.set_mask >= 0 && laddr >= 0 then laddr land cache.set_mask
  else
    let n = cache.nsets in
    ((laddr mod n) + n) mod n

let slot_valid page s = Bytes.unsafe_get page.valid s = '\001'

let tracked owner = owner >= 0 && owner < tracked_owners

let count_incr cache owner =
  if tracked owner then
    cache.owner_count.(owner) <- cache.owner_count.(owner) + 1

let count_decr cache owner =
  if tracked owner then
    cache.owner_count.(owner) <- cache.owner_count.(owner) - 1

(* Out of line: a journal fills up rarely. Journals are [int array]s, so
   recording a line needs no write barrier; only installing a grown array
   does. *)
let[@inline never] grow_journal cache owner =
  let old = cache.journals.(owner) in
  let a = Array.make (max 16 (2 * Array.length old)) 0 in
  Array.blit old 0 a 0 (Array.length old);
  cache.journals.(owner) <- a;
  a

(* Journal line [i] (global index) under [owner]. Invariant: a valid line
   tagged with a tracked speculative owner is always present in that
   owner's journal (the journal may additionally hold stale entries — lines
   since evicted, invalidated or re-tagged — which walks skip by
   re-checking ownership). *)
let journal_acquire cache i owner =
  if tracked owner && owner <> committed_owner then begin
    let len = cache.journal_len.(owner) in
    let a = cache.journals.(owner) in
    let a = if len = Array.length a then grow_journal cache owner else a in
    Array.unsafe_set a len i;
    cache.journal_len.(owner) <- len + 1
  end

(* Apply [f page slot] to each journaled line [owner] still owns, then
   empty the journal. Stale entries — lines since evicted, invalidated or
   re-tagged, and repeats — fail the ownership re-check. *)
let drain_journal cache ~owner f =
  let a = cache.journals.(owner) in
  for k = 0 to cache.journal_len.(owner) - 1 do
    let i = a.(k) in
    let page = page_of cache i and s = slot_of cache i in
    if slot_valid page s && page.owners.(s) = owner then f page s
  done;
  cache.journal_len.(owner) <- 0

type outcome = Hit | Miss

(* Associative walk of one set, hoisted to top level: an inner [let rec]
   would capture its locals and allocate a closure on every filter-miss
   access (no flambda). Returns the matching way's slot, or -1. The
   annotations matter: the compiler inlines a loop's first iteration into
   its callers as compiled, and an unannotated ['a array] compare is a call
   to the polymorphic [caml_equal] (a CI guard counts these). *)
let rec scan_set valid (tags : int array) (laddr : int) limit i =
  if i >= limit then -1
  else if
    Bytes.unsafe_get valid i = '\001' && Array.unsafe_get tags i = laddr
  then i
  else scan_set valid tags laddr limit (i + 1)

(* LRU victim of one set (invalid ways first), same hoisting rationale;
   [best] travels as an argument instead of a heap [ref]. *)
let rec pick_victim valid (lrus : int array) limit best i =
  if i >= limit then best
  else
    let best =
      if Bytes.unsafe_get valid best <> '\001' then best
      else if Bytes.unsafe_get valid i <> '\001' then i
      else if Array.unsafe_get lrus i < Array.unsafe_get lrus best then i
      else best
    in
    pick_victim valid lrus limit best (i + 1)

(* Access a word, filling on miss; returns hit/miss for latency accounting.
   [owner] tags the line on a fill or a write: an NT-Path that *loads* a new
   line or *stores* through one creates speculative data that must die with
   the path (the paper's volatile bit / version tag, Sections 4.2-4.3), so
   both take the path's id. A *read hit* leaves the line's tag alone — the
   path merely observed committed data, and retagging it would hand the
   committed line to the path's gang-invalidation at squash, destroying
   cached state the taken path still owns. *)
let access_line cache addr ~owner ~write ~allocate =
  let laddr = line_addr cache addr in
  (* Layer 1: the MRU line memo. A memoized read — or a write whose owner
     already matches the line's tag — is a hit whose only state transition
     is the hit counter: the line is MRU of its set (re-stamping it cannot
     reorder anything), and no retag or journal entry is due. Skipping the
     clock tick is sound because stamps are only compared within a set. *)
  if
    (laddr = cache.memo_laddr0 && (not write || owner = cache.memo_owner0))
    || (laddr = cache.memo_laddr1 && (not write || owner = cache.memo_owner1))
  then begin
    cache.hits <- cache.hits + 1;
    cache.memo_hits <- cache.memo_hits + 1;
    Hit
  end
  else begin
    cache.clock <- cache.clock + 1;
    let set = set_index cache laddr in
    let pi = set lsr page_set_bits in
    let ps = set land page_set_mask in
    let page = Array.unsafe_get cache.pages pi in
    let base = ps * cache.assoc in
    let limit = base + cache.assoc in
    (* Layer 2: the direct-mapped tag filter — try the set's last hit/fill
       way before walking the set. The candidate is re-verified against the
       tag and valid arrays, so a stale hint is a wasted compare, never a
       wrong lookup. Fill-on-miss keeps tags unique per set, so a verified
       candidate is *the* matching way. *)
    let idx =
      let w = base + Array.unsafe_get page.mru_way ps in
      if Array.unsafe_get page.tags w = laddr && slot_valid page w then begin
        cache.filter_hits <- cache.filter_hits + 1;
        w
      end
      else scan_set page.valid page.tags laddr limit base
    in
    (* Invariant for the unsafe accessors below: [set_index] reduces into
       [0..nsets-1], so [pi] indexes [pages] and [ps] is below the set
       count of any page this cache reads — a fresh page holds
       [min nsets page_sets] sets, the zero page at least [page_sets] — and
       [idx]/victim slots stay within [base..limit-1]. A hit implies a
       valid line, so only a fill can land on the zero page, and it swaps a
       fresh page in first. *)
    if idx >= 0 then begin
      Array.unsafe_set page.lrus idx cache.clock;
      let line_owner = Array.unsafe_get page.owners idx in
      let line_owner =
        if write && line_owner <> owner then begin
          count_decr cache line_owner;
          count_incr cache owner;
          Array.unsafe_set page.owners idx owner;
          journal_acquire cache ((pi * cache.page_lines) + idx) owner;
          owner
        end
        else line_owner
      in
      cache.hits <- cache.hits + 1;
      Array.unsafe_set page.mru_way ps (idx - base);
      memo_note cache laddr set line_owner;
      Hit
    end
    else begin
      if allocate then begin
        let page = if page == cache.zero then fresh_page cache pi else page in
        (* Victim: least-recently-used way, invalid ways first (and among
           invalid ways the first one found). *)
        let v = pick_victim page.valid page.lrus limit base (base + 1) in
        let prev_owner = Array.unsafe_get page.owners v in
        if slot_valid page v then count_decr cache prev_owner
        else cache.valid_count <- cache.valid_count + 1;
        Bytes.unsafe_set page.valid v '\001';
        Array.unsafe_set page.tags v laddr;
        Array.unsafe_set page.lrus v cache.clock;
        count_incr cache owner;
        if prev_owner <> owner then begin
          Array.unsafe_set page.owners v owner;
          journal_acquire cache ((pi * cache.page_lines) + v) owner
        end;
        Array.unsafe_set page.mru_way ps (v - base);
        memo_note cache laddr set owner
      end;
      cache.misses <- cache.misses + 1;
      Miss
    end
  end

(* Side-effect-free memo probe for the fast tier's batched latency
   accounting: [true] iff [access_line] would take the memo fast
   path (an L1 hit, zero stall cycles, no state change). The caller
   accumulates the implied hit counts in a register and flushes them once
   per segment with {!add_hits}. *)
let[@inline always] memo_probe cache addr ~owner ~write =
  let laddr = line_addr cache addr in
  (laddr = cache.memo_laddr0 && (not write || owner = cache.memo_owner0))
  || (laddr = cache.memo_laddr1 && (not write || owner = cache.memo_owner1))

(* Batched memo-probe credits from the fast tier: every batched hit took
   (would have taken) the memo layer. *)
let add_hits cache n =
  cache.hits <- cache.hits + n;
  cache.memo_hits <- cache.memo_hits + n
let access ?(owner = committed_owner) ?(write = false) ?(allocate = true) cache
    addr =
  access_line cache addr ~owner ~write ~allocate

(* Full-array sweeps: the owner operations for owner 0 and ids outside the
   tracked range. They visit every line, untouched ones on the zero page
   included, and keep the per-owner counts consistent, so mixing sweep and
   indexed calls on one cache stays sound (sweeps may leave stale journal
   entries behind; walks skip those by re-checking ownership). *)
let line_count cache = cache.nsets * cache.assoc

(* Count the lines owned by [owner], applying [f page slot] to each. *)
let sweep_owner cache ~owner f =
  let count = ref 0 in
  for i = 0 to line_count cache - 1 do
    let page = page_of cache i and s = slot_of cache i in
    if slot_valid page s && page.owners.(s) = owner then begin
      f page s;
      incr count
    end
  done;
  !count

let sweep_gang_invalidate cache ~owner =
  let count =
    sweep_owner cache ~owner (fun page s ->
        Bytes.unsafe_set page.valid s '\000';
        page.owners.(s) <- committed_owner;
        count_decr cache owner)
  in
  cache.valid_count <- cache.valid_count - count;
  (* A memoized line may just have been invalidated; trusting the memo past
     this point would fast-hit a dead line. A zero-line squash (the
     defensive cleanup on path-id wrap runs one per spawn once ids recycle)
     changed nothing and keeps the memo warm. *)
  if count > 0 then memo_kill cache;
  count

let sweep_owned_lines cache ~owner = sweep_owner cache ~owner (fun _ _ -> ())

(* Gang-invalidate every line owned by [owner] (NT-Path squash): walk only
   the owner's journal. The paper performs this with custom circuitry in a
   handful of cycles; the cycle cost is charged separately as the squash
   overhead. *)
let gang_invalidate cache ~owner =
  if tracked owner && owner <> committed_owner then begin
    let count = cache.owner_count.(owner) in
    drain_journal cache ~owner (fun page s ->
        Bytes.unsafe_set page.valid s '\000';
        page.owners.(s) <- committed_owner);
    cache.owner_count.(owner) <- 0;
    cache.valid_count <- cache.valid_count - count;
    (* Same hazard as the sweep: a squashed line may be memoized. *)
    if count > 0 then memo_kill cache;
    count
  end
  else sweep_gang_invalidate cache ~owner

let owned_lines cache ~owner =
  if tracked owner then cache.owner_count.(owner)
  else sweep_owned_lines cache ~owner

let snapshot cache =
  Array.init (line_count cache) (fun i ->
      let page = page_of cache i and s = slot_of cache i in
      (page.tags.(s), slot_valid page s, page.owners.(s), page.lrus.(s)))

(* Visible state with per-set LRU *ranks* in place of raw clock stamps: the
   memo skips clock ticks, so this cache and a model that ticks on every
   access agree on tags, validity, owners and eviction order while their
   absolute stamps drift apart. Rank = how many valid set-mates were touched earlier;
   invalid lines rank -1 (their stale stamps are unobservable — victim
   selection takes the first invalid way by index). *)
let snapshot_canonical cache =
  Array.init (line_count cache) (fun i ->
      let page = page_of cache i and s = slot_of cache i in
      let rank =
        if not (slot_valid page s) then -1
        else begin
          let base = s - (s mod cache.assoc) in
          let r = ref 0 in
          for j = base to base + cache.assoc - 1 do
            if slot_valid page j && page.lrus.(j) < page.lrus.(s) then incr r
          done;
          !r
        end
      in
      (page.tags.(s), slot_valid page s, page.owners.(s), rank))

let hits cache = cache.hits
let misses cache = cache.misses
let memo_hits cache = cache.memo_hits
let filter_hits cache = cache.filter_hits

let valid_lines cache = cache.valid_count

(* Report this cache's access statistics and occupancy into a telemetry
   sink, under [prefix] (e.g. "l1.primary", "l2"). *)
let record_telemetry cache sink ~prefix =
  Telemetry.count sink (prefix ^ ".hits") cache.hits;
  Telemetry.count sink (prefix ^ ".misses") cache.misses;
  Telemetry.count sink (prefix ^ ".memo_hits") cache.memo_hits;
  Telemetry.count sink (prefix ^ ".filter_hits") cache.filter_hits;
  let total = cache.hits + cache.misses in
  if total > 0 then begin
    Telemetry.gauge sink (prefix ^ ".hit_rate")
      (float_of_int cache.hits /. float_of_int total);
    Telemetry.gauge sink (prefix ^ ".memo_hit_rate")
      (float_of_int cache.memo_hits /. float_of_int total)
  end;
  Telemetry.gauge sink (prefix ^ ".occupancy")
    (float_of_int (valid_lines cache) /. float_of_int (line_count cache))
