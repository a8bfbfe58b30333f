(* Bug reports filed by the dynamic detectors. The paper stores these in a
   special monitor memory area that the NT-Path sandbox never rolls back;
   here the log models that area directly: entries filed during an NT-Path
   survive the path's squash.

   Every entry carries its path-origin provenance: reports filed inside an
   NT-Path name the branch edge that spawned the path (spawning branch pc
   and forced direction), so a bug reachable only speculatively can be
   traced back to the exact cold edge that exposed it. *)

type origin = Taken_path | Nt_path of int

type entry = {
  site : int;
  origin : origin;
  pc : int;
  insn_index : int;
  cycle : int;
      (* the reporting context's issue cycle: the primary core's on the
         taken path, path-local inside an NT-Path *)
  spawn_br_pc : int;  (* spawning branch pc; -1 on the taken path *)
  branch_edge : int;  (* forced direction 0/1; -1 on the taken path *)
}

type t = { mutable entries : entry list; mutable count : int }

let create () = { entries = []; count = 0 }

let file ?(spawn_br_pc = -1) ?(branch_edge = -1) log ~site ~origin ~pc
    ~insn_index ~cycle =
  log.entries <-
    { site; origin; pc; insn_index; cycle; spawn_br_pc; branch_edge }
    :: log.entries;
  log.count <- log.count + 1

let entries log = List.rev log.entries

let count log = log.count

let distinct_sites log =
  let module Int_set = Set.Make (Int) in
  Int_set.elements
    (List.fold_left
       (fun acc e -> Int_set.add e.site acc)
       Int_set.empty log.entries)

let sites_from_nt_paths log =
  let module Int_set = Set.Make (Int) in
  Int_set.elements
    (List.fold_left
       (fun acc e ->
         match e.origin with
         | Nt_path _ -> Int_set.add e.site acc
         | Taken_path -> acc)
       Int_set.empty log.entries)

let sites_from_taken_path log =
  let module Int_set = Set.Make (Int) in
  Int_set.elements
    (List.fold_left
       (fun acc e ->
         match e.origin with
         | Taken_path -> Int_set.add e.site acc
         | Nt_path _ -> acc)
       Int_set.empty log.entries)

(* The distinct branch edges (spawning pc, forced direction) whose NT-Paths
   filed at least one report — the "which cold edges found bugs" view. *)
let spawn_edges log =
  let module Pair_set = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  Pair_set.elements
    (List.fold_left
       (fun acc e ->
         match e.origin with
         | Nt_path _ when e.spawn_br_pc >= 0 ->
           Pair_set.add (e.spawn_br_pc, e.branch_edge) acc
         | Nt_path _ | Taken_path -> acc)
       Pair_set.empty log.entries)

let clear log =
  log.entries <- [];
  log.count <- 0
