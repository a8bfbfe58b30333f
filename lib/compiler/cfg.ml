(* Control-flow-graph export and prime-path enumeration over a compiled
   image — the static half of the Coverage Observatory (DESIGN.md §15).

   The graph is intraprocedural and covers *user* code only (the same
   universe branch coverage reports over): one subgraph per
   [Program.user_code_ranges] entry, nodes are basic blocks, edges the
   taken-path control-flow successors. [Call] is treated as straight-line
   (control returns to the fallthrough), and predicated instructions as NOPs
   — both match what the taken path of a monitored run actually does, which
   is the execution the coverage bitmaps describe.

   Prime paths follow Ammann & Offutt: a prime path is a maximal simple
   path — a path with no repeated node (except possibly first = last,
   closing a cycle) that is not a proper subpath of any other simple path.
   Enumeration is worklist extension from every node with an explicit work
   budget; when the budget trips, the still-extendable paths are *counted*
   as truncated rather than silently dropped (the no-silent-caps rule), so
   a reported prime-path coverage always says how much of the path universe
   it was computed over. *)

type edge_kind =
  | E_fall  (* fallthrough / unconditional jump *)
  | E_taken of int  (* taken edge of the conditional branch at this pc *)
  | E_nontaken of int  (* fallthrough edge of the conditional branch *)

type block = {
  b_first : int;  (* pc of the first instruction *)
  b_last : int;  (* pc of the last instruction (the terminator) *)
}

type t = {
  blocks : block array;
  succs : (int * edge_kind) list array;  (* successor block indices *)
  func_of_block : string array;  (* enclosing user function name *)
  decision_pcs : int list;  (* user-branch pcs that appear as block terminators *)
}

(* Branch decision carried by an edge, as a (branch pc, direction) pair —
   the coordinates branch coverage is recorded in. *)
let edge_decision = function
  | E_fall -> None
  | E_taken pc -> Some (pc, true)
  | E_nontaken pc -> Some (pc, false)

(* Note on predication: predicated code retires as a NOP outside NT-Path
   entry, so for the taken-path CFG a [Pred (Jmp _)] is straight-line — the
   block builder below therefore matches raw instructions and never strips
   [Pred]. *)
let of_program (program : Program.t) =
  let n = Program.length program in
  let ubits = Bytes.make n '\000' in
  List.iter
    (fun pc -> if pc >= 0 && pc < n then Bytes.set ubits pc '\001')
    program.Program.user_branches;
  let blocks = ref [] in
  let succs = ref [] in
  let funcs = ref [] in
  List.iter
    (fun (lo, hi) ->
      let hi = min hi n in
      if lo >= 0 && lo < hi then begin
        let fname =
          match Program.function_of_pc program lo with
          | Some f -> f
          | None -> Printf.sprintf "range@%d" lo
        in
        (* Leaders: the range entry, every in-range control target, and
           every instruction following a terminator. Predication is
           stripped only for coverage-universe branches — a predicated
           branch never fires on the taken path, so it neither ends a block
           nor contributes its target as a leader. *)
        let leader = Bytes.make (hi - lo) '\000' in
        let mark pc = if pc >= lo && pc < hi then Bytes.set leader (pc - lo) '\001' in
        mark lo;
        for pc = lo to hi - 1 do
          match Program.insn program pc with
          | Insn.Br (_, _, _, target) ->
            mark target;
            mark (pc + 1)
          | Insn.Jmp target ->
            mark target;
            mark (pc + 1)
          | Insn.Ret | Insn.Halt | Insn.Syscall Insn.Sys_exit -> mark (pc + 1)
          | _ -> ()
        done;
        (* Collect the range's blocks in pc order. *)
        let starts = ref [] in
        for pc = hi - 1 downto lo do
          if Bytes.get leader (pc - lo) = '\001' then starts := pc :: !starts
        done;
        let starts = Array.of_list !starts in
        let nb = Array.length starts in
        let base = List.length !blocks in
        let block_index_of_pc pc =
          (* binary search: the block whose [b_first] is the greatest <= pc *)
          let l = ref 0 and r = ref (nb - 1) in
          while !l < !r do
            let m = (!l + !r + 1) / 2 in
            if starts.(m) <= pc then l := m else r := m - 1
          done;
          if starts.(!l) <= pc then Some (base + !l) else None
        in
        for i = 0 to nb - 1 do
          let b_first = starts.(i) in
          let b_last = (if i + 1 < nb then starts.(i + 1) else hi) - 1 in
          let term = Program.insn program b_last in
          let in_range pc = pc >= lo && pc < hi in
          let s =
            match term with
            | Insn.Br (_, _, _, target) ->
              let taken =
                if in_range target then
                  match block_index_of_pc target with
                  | Some b ->
                    if Bytes.get ubits b_last = '\001' then
                      [ (b, E_taken b_last) ]
                    else [ (b, E_fall) ]
                  | None -> []
                else []
              in
              let fall =
                if in_range (b_last + 1) then
                  match block_index_of_pc (b_last + 1) with
                  | Some b ->
                    if Bytes.get ubits b_last = '\001' then
                      [ (b, E_nontaken b_last) ]
                    else [ (b, E_fall) ]
                  | None -> []
                else []
              in
              taken @ fall
            | Insn.Jmp target ->
              if in_range target then
                match block_index_of_pc target with
                | Some b -> [ (b, E_fall) ]
                | None -> []
              else []
            | Insn.Ret | Insn.Halt | Insn.Syscall Insn.Sys_exit -> []
            | _ ->
              (* straight-line end of block (next pc is a leader), or the
                 end of the range *)
              if in_range (b_last + 1) then
                match block_index_of_pc (b_last + 1) with
                | Some b -> [ (b, E_fall) ]
                | None -> []
              else []
          in
          blocks := { b_first; b_last } :: !blocks;
          succs := s :: !succs;
          funcs := fname :: !funcs
        done
      end)
    program.Program.user_code_ranges;
  let blocks = Array.of_list (List.rev !blocks) in
  let succs = Array.of_list (List.rev !succs) in
  let func_of_block = Array.of_list (List.rev !funcs) in
  let decision_pcs =
    Array.to_list blocks
    |> List.filter_map (fun b ->
           if
             b.b_last >= 0
             && b.b_last < Bytes.length ubits
             && Bytes.get ubits b.b_last = '\001'
           then Some b.b_last
           else None)
  in
  { blocks; succs; func_of_block; decision_pcs }

let block_count cfg = Array.length cfg.blocks

let edge_count cfg =
  Array.fold_left (fun acc s -> acc + List.length s) 0 cfg.succs

(* Test constructor: a bare graph with the given successor lists. Blocks
   get dummy one-instruction extents and no decision pcs, so prime-path
   counts can be hand-checked against textbook examples. *)
let of_succs succs =
  let n = Array.length succs in
  {
    blocks = Array.init n (fun i -> { b_first = i; b_last = i });
    succs = Array.map (List.map (fun b -> (b, E_fall))) succs;
    func_of_block = Array.make n "test";
    decision_pcs = [];
  }

(* ---- Prime paths --------------------------------------------------------- *)

type prime = {
  nodes : int array;  (* block indices, in path order *)
  decisions : (int * bool) list;
      (* branch-coverage coordinates of the path's decision edges, in path
         order: (branch pc, direction) *)
}

type paths = {
  all : prime array;  (* deterministic order: by node sequence *)
  truncated : int;
      (* simple paths abandoned mid-extension because the work budget
         tripped; 0 means [all] is the complete prime-path universe *)
}

(* The shape-level result: prime node sequences plus the truncation count.
   These depend only on the successor structure over block indices — not on
   the pcs inside the blocks — so callers can share them between CFGs with
   equal shape (e.g. detector variants of one source) and map decisions per
   concrete CFG with [paths_of_nodes]. *)
type node_paths = {
  np_all : int array array;
  np_truncated : int;
}

let default_max_paths = 20_000

(* Ammann–Offutt worklist enumeration. A candidate is a simple path; it is
   finalised when it cannot be extended (every successor of its tail either
   already appears in it or there are no successors) or when an extension
   closes a cycle back to its head — a cycle path (first = last) is prime by
   definition, since no longer simple path can contain it. The budget bounds
   the number of candidates ever created; paths still on the worklist when
   it trips are counted as truncated, never silently dropped. *)
let enumerate_nodes ?(max_paths = default_max_paths) cfg =
  let n = Array.length cfg.blocks in
  let finals = ref [] in
  (* Worklist of in-progress simple paths, each as (first node, reversed
     node list, membership bitset) — the first node rides along so closing
     a cycle is O(out-degree), not O(path length). The bitset is
     bit-packed: a budget-full enumeration copies it once per extension,
     so its width is the dominant allocation cost. *)
  let bit_get bits v =
    Char.code (Bytes.unsafe_get bits (v lsr 3)) land (1 lsl (v land 7)) <> 0
  in
  let bit_set bits v =
    Bytes.unsafe_set bits (v lsr 3)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get bits (v lsr 3)) lor (1 lsl (v land 7))))
  in
  let work = Queue.create () in
  let created = ref n in
  for v = 0 to n - 1 do
    let bits = Bytes.make ((n + 7) / 8) '\000' in
    bit_set bits v;
    Queue.add (v, [ v ], bits) work
  done;
  let truncated = ref 0 in
  while not (Queue.is_empty work) do
    let head, rev_path, bits = Queue.pop work in
    if !created > max_paths then incr truncated
    else begin
      let tail = List.hd rev_path in
      let extended = ref false in
      let cycled = ref false in
      List.iter
        (fun (s, _) ->
          if s = head then begin
            (* closing the cycle: a prime path with first = last (this also
               catches a direct self-loop on a length-1 seed) *)
            finals := (s :: rev_path, `Cycle) :: !finals;
            cycled := true
          end
          else if not (bit_get bits s) then begin
            let bits' = Bytes.copy bits in
            bit_set bits' s;
            Queue.add (head, s :: rev_path, bits') work;
            incr created;
            extended := true
          end)
        cfg.succs.(tail);
      if (not !extended) && not !cycled then
        finals := (rev_path, `Dead) :: !finals
    end
  done;
  (* Keep the prime finals. Cycle paths (first = last) are prime by
     definition: a longer simple path containing one would repeat its
     closing node away from the endpoints. A dead-end final P = [v0..vk]
     (tail unextendable) is a proper subpath of some simple path iff it can
     be extended on the *left* by one node — an edge [u -> v0] with [u]
     outside P's prefix nodes (a fresh head) or [u = vk] (closing a cycle
     around P). Checking predecessors of each head is linear in finals ×
     in-degree, replacing the quadratic all-pairs subpath scan. *)
  let seqs =
    List.map (fun (rev_path, kind) -> (Array.of_list (List.rev rev_path), kind)) !finals
  in
  let seqs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) seqs in
  let preds = Array.make n [] in
  Array.iteri
    (fun u ss ->
      List.iter
        (fun (v, _) -> if not (List.mem u preds.(v)) then preds.(v) <- u :: preds.(v))
        ss)
    cfg.succs;
  let prime_seqs =
    seqs
    |> List.filter (fun (seq, kind) ->
           kind = `Cycle
           ||
           let k = Array.length seq - 1 in
           let vk = seq.(k) in
           let in_prefix u =
             let rec go i = i < k && (seq.(i) = u || go (i + 1)) in
             go 0
           in
           not
             (List.exists
                (fun u -> u = vk || not (in_prefix u))
                preds.(seq.(0))))
    |> List.map fst
  in
  { np_all = Array.of_list prime_seqs; np_truncated = !truncated }

(* Map shape-level node sequences onto one concrete CFG's decision edges. *)
let paths_of_nodes cfg np =
  let decisions_of seq =
    let ds = ref [] in
    for i = Array.length seq - 2 downto 0 do
      let a = seq.(i) and b = seq.(i + 1) in
      match List.assoc_opt b cfg.succs.(a) with
      | Some kind ->
        (match edge_decision kind with
         | Some d -> ds := d :: !ds
         | None -> ())
      | None -> ()
    done;
    !ds
  in
  {
    all =
      Array.map (fun seq -> { nodes = seq; decisions = decisions_of seq }) np.np_all;
    truncated = np.np_truncated;
  }

let enumerate ?max_paths cfg = paths_of_nodes cfg (enumerate_nodes ?max_paths cfg)

(* The successor structure over block indices, with edge kinds erased — the
   only input [enumerate_nodes] reads, and therefore a sharing key for its
   result across CFGs of e.g. detector variants of one source. *)
let shape cfg = Array.map (List.map fst) cfg.succs

(* ---- Coverage evaluation ------------------------------------------------- *)

(* A prime path counts as covered when every decision edge along it is in
   the covered edge set AND every one of its blocks was executed
   ([line_covered] on the block's first instruction's source line). This is
   an *edge-approximated* path coverage: the run may have covered the
   decisions on separate traversals. It is an over-approximation of true
   prime-path coverage and a strict refinement of edge coverage, which is
   exactly the monotonicity the spawn-policy work needs (DESIGN.md §15). *)
let covered_count ~(edge_covered : int -> bool -> bool)
    ~(block_covered : int -> bool) cfg paths =
  let covered p =
    List.for_all (fun (pc, dir) -> edge_covered pc dir) p.decisions
    && Array.for_all (fun b -> block_covered cfg.blocks.(b).b_first) p.nodes
  in
  Array.fold_left (fun acc p -> if covered p then acc + 1 else acc) 0 paths.all
