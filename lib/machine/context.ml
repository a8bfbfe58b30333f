type stats = {
  mutable insns : int;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
}

let fresh_stats () = { insns = 0; cycles = 0; loads = 0; stores = 0; branches = 0 }

(* Generation-stamped open-addressing int->int table: the overlay's flat
   store. A slot is live iff its generation stamp equals the table's; reset
   is a generation bump, so one table serves every NT-Path an arena runs.
   Linear probing with a multiplicative hash; doubles when more than half
   full so probes stay short. A table starts small and grows to what the
   run's largest path wrote, and keeps that size for the paths after it. *)
module Itab = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable gens : int array;
    mutable mask : int;
    mutable gen : int;
    mutable used : int;
  }

  let next_pow2 n =
    let rec go k = if k >= n then k else go (2 * k) in
    go 16

  let create cap_hint =
    let cap = next_pow2 (max 16 cap_hint) in
    {
      keys = Array.make cap 0;
      vals = Array.make cap 0;
      gens = Array.make cap 0;
      mask = cap - 1;
      gen = 1;
      used = 0;
    }

  let reset t =
    t.gen <- t.gen + 1;
    t.used <- 0

  let hash t key = (key * 0x9E3779B1) land t.mask

  (* The probe loops live at top level with every piece of state passed as
     an argument: an inner [let rec] capturing locals would allocate a fresh
     closure on each call (no flambda here), and these two run once per
     sandboxed load/store — the simulator's hottest allocation site before
     they were hoisted. *)
  let rec find_probe gens keys gen key mask i =
    if Array.unsafe_get gens i <> gen then -1
    else if Array.unsafe_get keys i = key then i
    else find_probe gens keys gen key mask ((i + 1) land mask)

  (* Slot index of [key], or -1. *)
  let find t key =
    find_probe t.gens t.keys t.gen key t.mask (hash t key)

  let rec set_probe t key v i =
    if t.gens.(i) <> t.gen then begin
      t.gens.(i) <- t.gen;
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.used <- t.used + 1
    end
    else if t.keys.(i) = key then t.vals.(i) <- v
    else set_probe t key v ((i + 1) land t.mask)

  let rec grow t =
    let okeys = t.keys and ovals = t.vals and ogens = t.gens and ogen = t.gen in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    t.gens <- Array.make cap 0;
    t.mask <- cap - 1;
    t.gen <- 1;
    t.used <- 0;
    Array.iteri
      (fun i g -> if g = ogen then set t okeys.(i) ovals.(i))
      ogens

  (* Insert or overwrite. *)
  and set t key v =
    if 2 * t.used > t.mask then grow t;
    set_probe t key v (hash t key)
end

(* The one NT-Path sandbox, the hardware scheme: writes buffered in
   versioned L1 lines, discarded at squash and bounded by [line_limit]
   dirty lines (the L1's capacity; [max_int] for the software scheme).
   The buffer is a flat generation-stamped store, so a spawn allocates
   nothing. *)
type sandbox = {
  store : Itab.t;  (* addr -> buffered value *)
  lines : Itab.t;  (* dirty line index -> () ; [used] is the count *)
  line_limit : int;
  words_per_line : int;
  line_shift : int;  (* log2 words_per_line, or -1 *)
  mutable watch_journal : Watchpoints.journal_entry list;
  mutable path_id : int;
  (* Spawn provenance, carried so reports filed inside the path can name
     the branch edge that created it (-1 / false until set). *)
  mutable spawn_pc : int;
  mutable spawn_edge : bool;
}

type t = {
  regs : int array;
  mutable pc : int;
  mutable pred : bool;
  mutable in_pred_fix : bool;
      (* currently executing a predicated consistency-fix instruction:
         its stores are PathExpander's, not the program's *)
  mutable sandbox : sandbox option;
  stats : stats;
  mutable l1 : Cache.t;
  (* Scratch fields the interpreter's body fills when it stops at a
     conditional branch for the branch hook, so the per-branch event
     carries no allocation; the fallthrough is always [br_pc + 1]. *)
  mutable br_pc : int;
  mutable br_taken : bool;
  mutable br_target : int;
}

let create ~l1 ~pc ~sp =
  let regs = Array.make Reg.count 0 in
  regs.(Reg.sp) <- sp;
  regs.(Reg.fp) <- sp;
  {
    regs;
    pc;
    pred = false;
    in_pred_fix = false;
    sandbox = None;
    stats = fresh_stats ();
    l1;
    br_pc = 0;
    br_taken = false;
    br_target = 0;
  }

(* Re-aim a pooled context at a fresh spawn: zero statistics, clear the
   predicate machinery, detach any sandbox and retarget the L1. The caller
   still blits the spawning core's registers. *)
let reset_for_spawn ctx ~l1 ~pc =
  ctx.pc <- pc;
  ctx.pred <- false;
  ctx.in_pred_fix <- false;
  ctx.sandbox <- None;
  ctx.l1 <- l1;
  let s = ctx.stats in
  s.insns <- 0;
  s.cycles <- 0;
  s.loads <- 0;
  s.stores <- 0;
  s.branches <- 0

let get_reg ctx r = if r = Reg.zero then 0 else ctx.regs.(r)

let set_reg ctx r v = if r <> Reg.zero then ctx.regs.(r) <- v

let log2_pow2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  if n > 0 && n land (n - 1) = 0 then go n 0 else -1

(* Slots an overlay's tables start with. Most paths write a few words.
   Sizing the store for the most a path can write before it squashes
   (line_limit + 1 dirty lines: 16K slots, 49K words for the Table-2 L1)
   would make every engine run pay for it in the major heap, baseline runs
   that never spawn included. *)
let initial_slots = 16

let make_sandbox ~path_id ~line_limit ~words_per_line =
  {
    store = Itab.create initial_slots;
    lines = Itab.create initial_slots;
    line_limit;
    words_per_line;
    line_shift = log2_pow2 words_per_line;
    path_id;
    watch_journal = [];
    spawn_pc = -1;
    spawn_edge = false;
  }

(* Recycle a sandbox for the next spawn: O(1) (a generation bump), so
   pooling beats per-spawn allocation. *)
let reset_sandbox sandbox ~path_id =
  sandbox.path_id <- path_id;
  sandbox.watch_journal <- [];
  sandbox.spawn_pc <- -1;
  sandbox.spawn_edge <- false;
  Itab.reset sandbox.store;
  Itab.reset sandbox.lines

let enter_sandbox ctx sandbox = ctx.sandbox <- Some sandbox

let is_sandboxed ctx = match ctx.sandbox with Some _ -> true | None -> false

let path_id ctx =
  match ctx.sandbox with Some sb -> sb.path_id | None -> Cache.committed_owner

let sandbox_path_id sandbox = sandbox.path_id

let set_spawn_info sandbox ~br_pc ~edge =
  sandbox.spawn_pc <- br_pc;
  sandbox.spawn_edge <- edge

let sandbox_spawn_pc sandbox = sandbox.spawn_pc
let sandbox_spawn_edge sandbox = sandbox.spawn_edge

(* A sandboxed read sees the path's own buffered version first. *)
let sandbox_read sandbox mem addr =
  let i = Itab.find sandbox.store addr in
  if i >= 0 then Array.unsafe_get sandbox.store.Itab.vals i
  else Memory.read mem addr

(* A sandboxed write; returns [false] when it pushed the path past its L1
   buffering capacity (overflow => the path must squash). *)
let sandbox_write sandbox mem addr v =
  Memory.check mem addr;
  Itab.set sandbox.store addr v;
  let line =
    if sandbox.line_shift >= 0 && addr >= 0 then addr lsr sandbox.line_shift
    else addr / sandbox.words_per_line
  in
  Itab.set sandbox.lines line 0;
  sandbox.lines.Itab.used <= sandbox.line_limit

let read_mem ctx mem addr =
  match ctx.sandbox with
  | Some sb -> sandbox_read sb mem addr
  | None -> Memory.read mem addr

let dirty_line_count sandbox = sandbox.lines.Itab.used

let journal_watch sandbox entry =
  sandbox.watch_journal <- entry :: sandbox.watch_journal

let undo_watches sandbox watch_unit =
  List.iter (Watchpoints.undo watch_unit) sandbox.watch_journal;
  sandbox.watch_journal <- []
