(* Branch-coverage accounting over the user branch universe. An edge is a
   (branch pc, direction) pair; the universe is fixed by the compiled
   program.  Taken-path coverage is what the baseline monitored run achieves;
   NT-Path coverage is the additional code PathExpander lets the detector
   see.

   Everything is dense and mutable: the universe is a byte per pc, an edge
   set is a byte per (pc, direction) at index [2*pc + dir]. Recording an
   edge — once per executed branch, taken path and NT-Paths alike — is two
   array reads and a store, with none of the hashing or balanced-tree
   rebuilding of the persistent-set representation this replaces. *)

(* One statement-coverage bitmap with its pc-to-line map: what a per-pc
   record touches, resolved ahead of the hot loop. *)
type pc_sink = { sink_line_of : int array; sink_lines : Bytes.t }

type t = {
  ubits : Bytes.t;  (* per pc: is this a user conditional branch *)
  branch_universe : int;  (* number of user branches *)
  taken : Bytes.t;  (* per edge (2*pc + dir): seen on the taken path *)
  nt : Bytes.t;  (* per edge: seen inside an NT-Path *)
  (* statement (source-line) coverage: [line_of.(pc)] is the user source
     line of the instruction at [pc], or 0 for runtime code *)
  line_of : int array;
  line_taken : Bytes.t;
  line_nt : Bytes.t;
  line_universe : int;
  pc_taken : pc_sink;  (* over [line_taken] *)
  pc_nt : pc_sink;  (* over [line_nt] *)
  (* Frontier attribution (observatory only, armed per run): when armed,
     [nt_seq.(edge)] remembers the 1-based ordinal of the NT-Path that
     *first* covered the edge, so an uncovered sibling edge can be blamed on
     that path's termination cause. [cur_seq] is the ordinal of the NT-Path
     currently executing (0 on the taken path). *)
  mutable attr_armed : bool;
  mutable cur_seq : int;
  mutable nt_seq : int array;
}

(* Slots marked '\001'. *)
let count_lines bytes =
  Bytes.fold_left (fun acc c -> if c = '\001' then acc + 1 else acc) 0 bytes

let create program =
  let n = Program.length program in
  let ubits = Bytes.make n '\000' in
  List.iter
    (fun pc -> if pc >= 0 && pc < n then Bytes.set ubits pc '\001')
    program.Program.user_branches;
  let user = Bytes.make n '\000' in
  List.iter
    (fun (lo, hi) ->
      for pc = lo to min (hi - 1) (n - 1) do
        Bytes.set user pc '\001'
      done)
    program.Program.user_code_ranges;
  (* One walk over the pc-sorted [source_lines] in step with the pcs: a
     user pc takes the line of the last entry at or before it, as
     [Program.line_of_pc] would find by binary search. *)
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
  let max_line = Array.fold_left max 0 line_of in
  let seen = Bytes.make (max_line + 1) '\000' in
  Array.iter (fun l -> if l > 0 then Bytes.set seen l '\001') line_of;
  let line_taken = Bytes.make (max_line + 1) '\000' in
  let line_nt = Bytes.make (max_line + 1) '\000' in
  {
    ubits;
    branch_universe = count_lines ubits;
    taken = Bytes.make (2 * n) '\000';
    nt = Bytes.make (2 * n) '\000';
    line_of;
    line_taken;
    line_nt;
    line_universe = count_lines seen;
    pc_taken = { sink_line_of = line_of; sink_lines = line_taken };
    pc_nt = { sink_line_of = line_of; sink_lines = line_nt };
    attr_armed = false;
    cur_seq = 0;
    nt_seq = [||];
  }

let[@inline always] in_universe cov pc =
  pc >= 0 && pc < Bytes.length cov.ubits && Bytes.unsafe_get cov.ubits pc = '\001'

let[@inline always] edge_index pc direction = (2 * pc) + if direction then 1 else 0

(* Called once per executed conditional branch — the hot recording path. *)
let[@inline always] record_taken cov pc direction =
  if in_universe cov pc then
    Bytes.unsafe_set cov.taken (edge_index pc direction) '\001'

let[@inline always] record_nt cov pc direction =
  if in_universe cov pc then begin
    let i = edge_index pc direction in
    Bytes.unsafe_set cov.nt i '\001';
    (* attribution bookkeeping: one predictable-false branch when unarmed *)
    if cov.attr_armed && Array.unsafe_get cov.nt_seq i = 0 then
      Array.unsafe_set cov.nt_seq i cov.cur_seq
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

(* Combined statement coverage of the source line generating [pc]; false for
   runtime code (line 0 is the sentinel slot, never a user line). *)
let pc_line_covered cov pc =
  pc >= 0
  && pc < Array.length cov.line_of
  &&
  let l = cov.line_of.(pc) in
  l > 0
  && (Bytes.get cov.line_taken l = '\001' || Bytes.get cov.line_nt l = '\001')

(* Statement coverage: called once per retired instruction, so the store is
   unconditional — runtime code maps to line 0, whose bitmap slot is a
   sentinel sink the percentage readers below skip. [line_of] has exactly
   one slot per pc (see [create]), so the caller's pc range check covers
   the unsafe read. *)
let[@inline always] record_pc sink pc =
  if pc >= 0 && pc < Array.length sink.sink_line_of then
    Bytes.unsafe_set sink.sink_lines
      (Array.unsafe_get sink.sink_line_of pc)
      '\001'

let pc_sink cov ~nt = if nt then cov.pc_nt else cov.pc_taken
let[@inline always] record_pc_taken cov pc = record_pc cov.pc_taken pc
let[@inline always] record_pc_nt cov pc = record_pc cov.pc_nt pc

(* Line bitmaps only: slot 0 is the runtime-code sentinel, never a line. *)
let count_marked_lines bytes =
  let n = ref 0 in
  for i = 1 to Bytes.length bytes - 1 do
    if Bytes.get bytes i = '\001' then incr n
  done;
  !n

let stmt_taken_pct cov =
  Stats.pct ~num:(count_marked_lines cov.line_taken) ~den:cov.line_universe

let stmt_combined_pct cov =
  let combined = ref 0 in
  for i = 1 to Bytes.length cov.line_taken - 1 do
    if Bytes.get cov.line_taken i = '\001' || Bytes.get cov.line_nt i = '\001'
    then incr combined
  done;
  Stats.pct ~num:!combined ~den:cov.line_universe

let edge_universe_size cov = 2 * cov.branch_universe

let taken_edges cov = count_lines cov.taken

let combined_edges cov =
  let combined = ref 0 in
  for i = 0 to Bytes.length cov.taken - 1 do
    if Bytes.get cov.taken i = '\001' || Bytes.get cov.nt i = '\001' then
      incr combined
  done;
  !combined

let taken_pct cov =
  Stats.pct ~num:(taken_edges cov) ~den:(edge_universe_size cov)

let combined_pct cov =
  Stats.pct ~num:(combined_edges cov) ~den:(edge_universe_size cov)

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
  union_into dst.line_taken src.line_taken;
  union_into dst.line_nt src.line_nt
