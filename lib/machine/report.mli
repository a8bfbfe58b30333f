(** The bug-report log — the model of the paper's monitor memory area.

    Reports filed by detector checks are written to a memory region that the
    NT-Path sandbox explicitly exempts from rollback, so findings made on a
    squashed path survive. Each entry records which report site fired and
    whether it fired on the taken path or inside an NT-Path. *)

type origin = Taken_path | Nt_path of int  (** payload: NT-Path id *)

type entry = {
  site : int;
  origin : origin;
  pc : int;  (** pc of the reporting instruction *)
  insn_index : int;  (** dynamic instruction count when filed *)
  cycle : int;
      (** issue cycle of the reporting instruction in its own context: the
          primary core's cycles on the taken path, cycles since the spawn
          inside an NT-Path *)
  spawn_br_pc : int;
      (** pc of the branch whose non-taken edge spawned the reporting
          NT-Path; [-1] for taken-path reports *)
  branch_edge : int;
      (** the forced direction of that edge (0/1); [-1] for taken-path
          reports *)
}

type t

val create : unit -> t

(** File a report. [spawn_br_pc]/[branch_edge] default to [-1] (taken-path
    provenance); NT-Path reports pass the spawning edge. *)
val file :
  ?spawn_br_pc:int ->
  ?branch_edge:int ->
  t ->
  site:int ->
  origin:origin ->
  pc:int ->
  insn_index:int ->
  cycle:int ->
  unit

(** All entries, oldest first. *)
val entries : t -> entry list

val count : t -> int

(** Sorted distinct site ids that fired at least once. *)
val distinct_sites : t -> int list

(** Distinct sites that fired inside some NT-Path. *)
val sites_from_nt_paths : t -> int list

(** Distinct sites that fired on the taken path. *)
val sites_from_taken_path : t -> int list

(** Sorted distinct [(spawn_br_pc, branch_edge)] pairs whose NT-Paths filed
    at least one report — which cold edges exposed bugs. *)
val spawn_edges : t -> (int * int) list

val clear : t -> unit
