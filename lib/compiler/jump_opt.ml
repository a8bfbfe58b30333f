(* Assembly-level jump optimization over [Asmprog.t]:

   - *threading*: a [Jmp]/[Br] whose target instruction is itself an
     unconditional [Jmp] is retargeted at the final destination of the
     chain (cycle-safe, so [while(1);] survives);

   - *jump-to-next compaction*: a [Jmp] targeting the immediately following
     pc is deleted and the code compacted, with every pc-keyed side table
     (labels, user branches, function starts, user ranges, fix atoms,
     source lines) remapped through the kept-instruction prefix sum.

   Both transforms preserve NT-Path semantics. Branches are never moved or
   deleted, so branch pcs, BTB counters and edge-coverage accounting keep
   their meaning; fix stubs begin with [Pred]/[Clearpred] instructions, so
   threading can only collapse the *unpredicated* jump chains around them,
   and an NT-Path entering an edge observes the same machine state either
   way. The non-taken spawn entry [br_pc + 1] is positional and stays valid
   because the instruction after a branch (the false stub's head) is never a
   jump-to-next by construction. *)

(* The label a jump to [l0] finally reaches: the end of the chain of
   unconditional jumps from [l0], or [l0] itself when the chain cycles.
   [visited] holds the labels followed so far. *)
let rec final_label (ap : Asmprog.t) l0 l visited =
  if List.mem l visited then l0
  else
    let target_pc = ap.Asmprog.labels.(l) in
    if target_pc >= 0 && target_pc < Array.length ap.Asmprog.code then
      match ap.Asmprog.code.(target_pc) with
      | Insn.Jmp t when t < 0 -> final_label ap l0 (-t - 1) (l :: visited)
      | _ -> l
    else l

(* Retarget every [Jmp]/[Br] at the end of its jump chain. Threading
   follows whole chains and never changes where one ends, so a second round
   on unchanged code is a no-op. An instruction is rewritten only when its
   target moves. *)
let thread_round (ap : Asmprog.t) =
  let code = ap.Asmprog.code in
  (* [t] itself when it does not move. *)
  let retarget t =
    if t >= 0 then t
    else
      let l = -t - 1 in
      let l' = final_label ap l l [] in
      if l' <> l then Asmprog.lref l' else t
  in
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Jmp t ->
        let t' = retarget t in
        if t' <> t then code.(i) <- Insn.Jmp t'
      | Insn.Br (c, rs, rt, t) ->
        let t' = retarget t in
        if t' <> t then code.(i) <- Insn.Br (c, rs, rt, t')
      | _ -> ())
    code

let compact_round (ap : Asmprog.t) =
  let old_code = ap.Asmprog.code in
  let n = Array.length old_code in
  let jumps_to_next i =
    match old_code.(i) with
    | Insn.Jmp t when t >= 0 -> t = i + 1
    | Insn.Jmp t -> ap.Asmprog.labels.(-t - 1) = i + 1
    | _ -> false
  in
  (* newpc.(i) = number of kept instructions before i, so instruction i is
     kept iff newpc.(i + 1) > newpc.(i); a label or table entry on a
     removed pc lands on the next kept instruction. *)
  let newpc = Array.make (n + 1) 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    newpc.(i) <- !k;
    if not (jumps_to_next i) then incr k
  done;
  newpc.(n) <- !k;
  if !k = n then (ap, false)
  else begin
    let code = Array.make !k Insn.Nop in
    for i = 0 to n - 1 do
      if newpc.(i + 1) > newpc.(i) then code.(newpc.(i)) <- old_code.(i)
    done;
    let labels =
      Array.map
        (fun label_pc -> if label_pc < 0 then label_pc else newpc.(label_pc))
        ap.Asmprog.labels
    in
    let remap p = newpc.(p) in
    (* [source_lines] ascends by pc and [remap] never decreases, so entries
       that collapse onto one pc (a line whose only instructions were
       removed lands on the next line's start) are adjacent; the later
       entry wins. *)
    let rec remap_lines acc = function
      | (p, _) :: ((q, _) :: _ as rest) when remap p = remap q ->
        remap_lines acc rest
      | (p, line) :: rest -> remap_lines ((remap p, line) :: acc) rest
      | [] -> List.rev acc
    in
    ( {
        ap with
        Asmprog.code;
        labels;
        user_branches = List.map remap ap.Asmprog.user_branches;
        functions = List.map (fun (nm, p) -> (nm, remap p)) ap.Asmprog.functions;
        user_ranges =
          List.map (fun (a, b) -> (remap a, remap b)) ap.Asmprog.user_ranges;
        fix_atoms = List.map (fun (p, fa) -> (remap p, fa)) ap.Asmprog.fix_atoms;
        source_lines = remap_lines [] ap.Asmprog.source_lines;
      },
      true )
  end

(* Alternate threading and compaction: compaction moves labels, which can
   expose new chains to thread. A round that compacts nothing leaves code
   that threading has already settled, and threading it again changes
   nothing, so the loop stops after the first such round. Four rounds bound
   the pass; every image pinned in bench/images.md5 compacts nothing by
   its third. *)
let run (ap : Asmprog.t) : Asmprog.t =
  let rec round ap n =
    thread_round ap;
    let ap, compacted = compact_round ap in
    if compacted && n < 4 then round ap (n + 1) else ap
  in
  round { ap with Asmprog.code = Array.copy ap.Asmprog.code } 1
