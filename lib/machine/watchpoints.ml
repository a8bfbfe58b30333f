(* iWatcher-style hardware watchpoint unit: a set of address ranges, each
   associated with a report site. Every load/store is checked against the
   ranges; a hit triggers the associated monitoring check at small, fixed
   hardware cost.

   The range list is the authority for sites and modes. Beside it sits an
   exact membership filter, the "small, fixed cost" part: per-word cover
   counts (how many ranges contain the word), so [watched] is one page
   lookup. Counts are stored like [Memory]'s words: 1024-word pages that
   all start as one shared zero page, never written, with a fresh page on
   a page's first mark. The page table itself is made on the first mark,
   so a run that watches nothing pays nothing. Every range is clipped to
   the machine's memory before marking: marking work is bounded by the
   memory size however wide a (garbage) range is, and the clipped-off part
   is never accessible, so nothing inside it can hit. *)

type mode = Watch_read | Watch_write | Watch_both

type range = { lo : int; hi : int; site : int; mode : mode }

type t = {
  mutable ranges : range list;
  size : int;
  mutable pages : int array array;  (* [||] until the first mark *)
}

type journal_entry = Added of range | Removed of range list

let page_bits = 10
let page_words = 1 lsl page_bits
let page_mask = page_words - 1
let zero_page = Array.make page_words 0

let create ~size = { ranges = []; size; pages = [||] }

(* Add [delta] to the cover count of every word of [r] inside memory. *)
let mark unit r delta =
  let lo = max r.lo 0 and hi = min r.hi unit.size in
  if lo < hi then begin
    if Array.length unit.pages = 0 then
      unit.pages <-
        Array.make ((unit.size + page_mask) lsr page_bits) zero_page;
    for addr = lo to hi - 1 do
      let p = addr lsr page_bits in
      let page =
        let page = unit.pages.(p) in
        if page == zero_page then begin
          let fresh = Array.make page_words 0 in
          unit.pages.(p) <- fresh;
          fresh
        end
        else page
      in
      let i = addr land page_mask in
      page.(i) <- page.(i) + delta
    done
  end

(* An inverted range ([hi < lo]) is kept like an empty one: it is listed,
   can be unwatched and undone, and covers no word. *)
let watch ?(mode = Watch_both) unit ~lo ~hi ~site =
  let r = { lo; hi; site; mode } in
  unit.ranges <- r :: unit.ranges;
  mark unit r 1;
  Added r

let unwatch unit ~lo ~hi =
  let removed, kept =
    List.partition (fun r -> r.lo >= lo && r.hi <= hi) unit.ranges
  in
  unit.ranges <- kept;
  List.iter (fun r -> mark unit r (-1)) removed;
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

(* A negative [addr] shifts to a page index past the table. *)
let[@inline always] watched unit addr =
  let p = addr lsr page_bits in
  p < Array.length unit.pages
  && Array.unsafe_get (Array.unsafe_get unit.pages p) (addr land page_mask) > 0

(* Journals are undone newest first, so an [Added] range is still listed
   when its entry is undone. *)
let undo unit entry =
  match entry with
  | Added r ->
    unit.ranges <- List.filter (fun r' -> r' != r) unit.ranges;
    mark unit r (-1)
  | Removed rs ->
    unit.ranges <- rs @ unit.ranges;
    List.iter (fun r -> mark unit r 1) rs

let count unit = List.length unit.ranges

(* O(1) emptiness test for the per-segment and per-access checks
   ([List.length] walks the list). *)
let[@inline always] is_empty unit =
  match unit.ranges with [] -> true | _ :: _ -> false
