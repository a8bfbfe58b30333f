(** Branch coverage over the program's user branch-edge universe.

    The paper evaluates PathExpander with branch coverage (path coverage
    being unmeasurable); an edge is one direction of a conditional branch in
    user (non-runtime-library) code. *)

type t

val create : Program.t -> t

val in_universe : t -> int -> bool

(** Record an edge executed by the taken path. Edges outside the universe
    (runtime library, detector code) are ignored. *)
val record_taken : t -> int -> bool -> unit

(** Record an edge executed inside an NT-Path. *)
val record_nt : t -> int -> bool -> unit

(** Statement coverage: record the instruction at [pc] as executed by the
    taken path (runtime-library pcs are ignored). Called per instruction. *)
val record_pc_taken : t -> int -> unit

val record_pc_nt : t -> int -> unit

(** The statement-coverage sink of one kind (NT-Path when [nt]), for a hot
    loop that picks the kind once per segment rather than per instruction.
    Preallocated: looking one up allocates nothing. *)
type pc_sink

val pc_sink : t -> nt:bool -> pc_sink

(** [record_pc (pc_sink cov ~nt:false) pc] is [record_pc_taken cov pc];
    likewise for NT-Paths. *)
val record_pc : pc_sink -> int -> unit

(** Total number of edges: two per user branch. *)
val edge_universe_size : t -> int

val taken_edges : t -> int
val combined_edges : t -> int

(** Baseline branch coverage, percent. *)
val taken_pct : t -> float

(** Coverage including NT-Path exploration, percent. *)
val combined_pct : t -> float

(** Statement (distinct user source line) coverage of the taken path. *)
val stmt_taken_pct : t -> float

(** Statement coverage including NT-Path exploration. *)
val stmt_combined_pct : t -> float

(** Union [src]'s coverage into [dst] (cumulative coverage over inputs). *)
val merge_into : dst:t -> t -> unit

(** {2 Observatory hooks (DESIGN.md §15)}

    Frontier attribution needs to read individual edges back out of the
    bitmaps and to know {e which} NT-Path first covered an edge. The
    per-edge sequence array is only allocated (and the recording branch only
    taken) once {!arm_attribution} runs, so unobserved runs pay one
    predictable-false test per NT edge record. *)

(** Arm per-edge NT-Path attribution for this run. *)
val arm_attribution : t -> unit

(** Ordinal (1-based) of the NT-Path about to execute; 0 = taken path. *)
val set_nt_seq : t -> int -> unit

(** Ordinal of the NT-Path that first covered the edge, 0 if none (or
    attribution unarmed). *)
val nt_first_seq : t -> int -> bool -> int

val covered_taken_edge : t -> int -> bool -> bool
val covered_nt_edge : t -> int -> bool -> bool

(** Edge in the combined (taken ∪ NT) set. *)
val covered_edge : t -> int -> bool -> bool

(** Combined statement coverage of the source line generating [pc]; false
    for runtime-library pcs. *)
val pc_line_covered : t -> int -> bool
