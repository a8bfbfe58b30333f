(* Branch-coverage accounting over the user branch universe. An edge is a
   (branch pc, direction) pair; the universe is fixed by the compiled
   program.  Taken-path coverage is what the baseline monitored run achieves;
   NT-Path coverage is the additional code PathExpander lets the detector
   see.

   Everything is dense and mutable: the universe is a byte per pc, an edge
   set is a byte per (pc, direction) at index [2*pc + dir]. Recording an
   edge — once per executed branch, taken path and NT-Paths alike — is a
   few byte reads, plus a store and a count bump the first time the edge is
   covered, with none of the hashing or balanced-tree rebuilding of the
   persistent-set representation this replaces. *)

(* Statement coverage is kept per pc: a byte per pc executed, one map for
   the taken path and one for NT-Paths. Source lines are a view folded from
   those maps and the program's [source_lines]/[user_code_ranges] only when
   a statement percentage or [pc_line_covered] asks, so a run that never
   asks pays nothing for them. *)
type pc_sink = Bytes.t

type t = {
  program : Program.t;  (* for the line view, folded on demand *)
  ubits : Bytes.t;  (* per pc: is this a user conditional branch *)
  branch_universe : int;  (* number of user branches *)
  taken : Bytes.t;  (* per edge (2*pc + dir): seen on the taken path *)
  nt : Bytes.t;  (* per edge: seen inside an NT-Path *)
  (* Edge counts, bumped when an edge's byte first goes from 0 to 1 (and
     recomputed by [merge_into]): the percentages read them in O(1). *)
  mutable taken_edges : int;
  mutable combined_edges : int;  (* edges in taken or nt *)
  pc_taken : pc_sink;  (* per pc: executed on the taken path *)
  pc_nt : pc_sink;  (* per pc: executed inside an NT-Path *)
  (* Frontier attribution (observatory only, armed per run): when armed,
     [nt_seq.(edge)] remembers the 1-based ordinal of the NT-Path that
     *first* covered the edge, so an uncovered sibling edge can be blamed on
     that path's termination cause. [cur_seq] is the ordinal of the NT-Path
     currently executing (0 on the taken path). *)
  mutable attr_armed : bool;
  mutable cur_seq : int;
  mutable nt_seq : int array;
}

(* O(user branches) besides the zero-filled maps: nothing here depends on
   the program's size in instructions beyond a memset. *)
let create program =
  let n = Program.length program in
  let ubits = Bytes.make n '\000' in
  let universe = ref 0 in
  List.iter
    (fun pc ->
      if pc >= 0 && pc < n && Bytes.unsafe_get ubits pc = '\000' then begin
        Bytes.unsafe_set ubits pc '\001';
        incr universe
      end)
    program.Program.user_branches;
  {
    program;
    ubits;
    branch_universe = !universe;
    taken = Bytes.make (2 * n) '\000';
    nt = Bytes.make (2 * n) '\000';
    taken_edges = 0;
    combined_edges = 0;
    pc_taken = Bytes.make n '\000';
    pc_nt = Bytes.make n '\000';
    attr_armed = false;
    cur_seq = 0;
    nt_seq = [||];
  }

let[@inline always] in_universe cov pc =
  pc >= 0 && pc < Bytes.length cov.ubits && Bytes.unsafe_get cov.ubits pc = '\001'

let[@inline always] edge_index pc direction = (2 * pc) + if direction then 1 else 0

(* Called once per executed conditional branch — the hot recording path.
   A first cover bumps the edge counts; a repeat is one load and a
   predictable branch. *)
let[@inline always] record_taken cov pc direction =
  if in_universe cov pc then begin
    let i = edge_index pc direction in
    if Bytes.unsafe_get cov.taken i = '\000' then begin
      Bytes.unsafe_set cov.taken i '\001';
      cov.taken_edges <- cov.taken_edges + 1;
      if Bytes.unsafe_get cov.nt i = '\000' then
        cov.combined_edges <- cov.combined_edges + 1
    end
  end

(* An NT edge's first cover is also where attribution stamps the path that
   covered it: arming precedes every record of a run. *)
let[@inline always] record_nt cov pc direction =
  if in_universe cov pc then begin
    let i = edge_index pc direction in
    if Bytes.unsafe_get cov.nt i = '\000' then begin
      Bytes.unsafe_set cov.nt i '\001';
      if Bytes.unsafe_get cov.taken i = '\000' then
        cov.combined_edges <- cov.combined_edges + 1;
      if cov.attr_armed then Array.unsafe_set cov.nt_seq i cov.cur_seq
    end
  end

(* ---- Observatory hooks (DESIGN.md §15) ---- *)

let arm_attribution cov =
  cov.attr_armed <- true;
  if Array.length cov.nt_seq = 0 then
    cov.nt_seq <- Array.make (Bytes.length cov.nt) 0

(* Ordinal (1-based) of the NT-Path about to run; 0 = back on taken path. *)
let set_nt_seq cov seq = cov.cur_seq <- seq

(* Ordinal of the NT-Path that first covered the edge; 0 when the edge was
   never covered inside an NT-Path (or attribution was not armed). *)
let nt_first_seq cov pc direction =
  let i = edge_index pc direction in
  if i >= 0 && i < Array.length cov.nt_seq then cov.nt_seq.(i) else 0

let covered_taken_edge cov pc direction =
  let i = edge_index pc direction in
  i >= 0 && i < Bytes.length cov.taken && Bytes.get cov.taken i = '\001'

let covered_nt_edge cov pc direction =
  let i = edge_index pc direction in
  i >= 0 && i < Bytes.length cov.nt && Bytes.get cov.nt i = '\001'

let covered_edge cov pc direction =
  covered_taken_edge cov pc direction || covered_nt_edge cov pc direction

(* Statement coverage: called once per retired instruction, so the store is
   unconditional; runtime pcs are marked too and the line view skips them. *)
let[@inline always] record_pc sink pc =
  if pc >= 0 && pc < Bytes.length sink then Bytes.unsafe_set sink pc '\001'

let pc_sink cov ~nt = if nt then cov.pc_nt else cov.pc_taken

(* ---- The line view, folded on demand ---- *)

(* The user source line of every pc, 0 for runtime code: one walk over the
   pc-sorted [source_lines] in step with the pcs. A user pc takes the line
   of the last entry at or before it, as [Program.line_of_pc] would find by
   binary search. *)
let line_of_pcs program =
  let n = Program.length program in
  let user = Bytes.make n '\000' in
  List.iter
    (fun (lo, hi) ->
      let lo = max lo 0 and hi = min hi n in
      if hi > lo then Bytes.fill user lo (hi - lo) '\001')
    program.Program.user_code_ranges;
  let line_of = Array.make n 0 in
  let src = program.Program.source_lines in
  let next = ref 0 and line = ref 0 in
  for pc = 0 to n - 1 do
    while !next < Array.length src && src.(!next) <= pc do
      line := src.(!next + 1);
      next := !next + 2
    done;
    if Bytes.get user pc = '\001' then line_of.(pc) <- !line
  done;
  line_of

(* Per line: is it a user line, and was some pc of it executed on the taken
   path ([taken]) or on either ([combined]). Line 0 is never a line. *)
type lines = { user_lines : Bytes.t; taken_lines : Bytes.t; combined_lines : Bytes.t }

let fold_lines cov line_of =
  let max_line = ref 0 in
  Array.iter (fun (l : int) -> if l > !max_line then max_line := l) line_of;
  let make () = Bytes.make (!max_line + 1) '\000' in
  let v = { user_lines = make (); taken_lines = make (); combined_lines = make () } in
  Array.iteri
    (fun pc l ->
      if l > 0 then begin
        Bytes.set v.user_lines l '\001';
        let taken = Bytes.get cov.pc_taken pc = '\001' in
        if taken then Bytes.set v.taken_lines l '\001';
        if taken || Bytes.get cov.pc_nt pc = '\001' then
          Bytes.set v.combined_lines l '\001'
      end)
    line_of;
  v

(* Slots marked '\001'. *)
let count_marked bytes =
  Bytes.fold_left (fun acc c -> if c = '\001' then acc + 1 else acc) 0 bytes

let stmt_taken_pct cov =
  let v = fold_lines cov (line_of_pcs cov.program) in
  Stats.pct ~num:(count_marked v.taken_lines) ~den:(count_marked v.user_lines)

let stmt_combined_pct cov =
  let v = fold_lines cov (line_of_pcs cov.program) in
  Stats.pct ~num:(count_marked v.combined_lines)
    ~den:(count_marked v.user_lines)

(* Combined statement coverage of the source line generating [pc]; false for
   runtime code. Staged: applying it to [cov] folds the line view once, and
   the predicate it returns answers from that view. *)
let pc_line_covered cov =
  let line_of = line_of_pcs cov.program in
  let v = fold_lines cov line_of in
  fun pc ->
    pc >= 0
    && pc < Array.length line_of
    &&
    let l = line_of.(pc) in
    l > 0 && Bytes.get v.combined_lines l = '\001'

(* ---- Edge counts ---- *)

let edge_universe_size cov = 2 * cov.branch_universe
let taken_edges cov = cov.taken_edges
let combined_edges cov = cov.combined_edges

let taken_pct cov =
  Stats.pct ~num:cov.taken_edges ~den:(edge_universe_size cov)

let combined_pct cov =
  Stats.pct ~num:cov.combined_edges ~den:(edge_universe_size cov)

let union_into dst src =
  let n = min (Bytes.length dst) (Bytes.length src) in
  for i = 0 to n - 1 do
    if Bytes.get src i = '\001' then Bytes.set dst i '\001'
  done

(* Accumulate [src] into [dst] (cumulative coverage across inputs). Both must
   come from the same compiled program. *)
let merge_into ~dst src =
  union_into dst.taken src.taken;
  union_into dst.nt src.nt;
  union_into dst.pc_taken src.pc_taken;
  union_into dst.pc_nt src.pc_nt;
  let taken = ref 0 and combined = ref 0 in
  for i = 0 to Bytes.length dst.taken - 1 do
    let t = Bytes.get dst.taken i = '\001' in
    if t then incr taken;
    if t || Bytes.get dst.nt i = '\001' then incr combined
  done;
  dst.taken_edges <- !taken;
  dst.combined_edges <- !combined
