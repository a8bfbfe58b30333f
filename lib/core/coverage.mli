(** Branch coverage over the program's user branch-edge universe.

    The paper evaluates PathExpander with branch coverage (path coverage
    being unmeasurable); an edge is one direction of a conditional branch in
    user (non-runtime-library) code.

    A run pays for what it records. {!create} zero-fills the per-run maps
    and walks only the program's user branches. Edge counts are kept as
    edges are first covered, so the edge counts and percentages are O(1).
    Statement coverage is a byte per executed pc; source lines are folded
    from it only when {!stmt_taken_pct}, {!stmt_combined_pct} or
    {!pc_line_covered} asks, in O(program) per ask. *)

type t

val create : Program.t -> t

val in_universe : t -> int -> bool

(** Record an edge executed by the taken path. Edges outside the universe
    (runtime library, detector code) are ignored. *)
val record_taken : t -> int -> bool -> unit

(** Record an edge executed inside an NT-Path. *)
val record_nt : t -> int -> bool -> unit

(** The statement-coverage sink of one kind (NT-Path when [nt]), for a hot
    loop that picks the kind once per segment rather than per instruction.
    Preallocated: looking one up allocates nothing. *)
type pc_sink

val pc_sink : t -> nt:bool -> pc_sink

(** Statement coverage: record the instruction at [pc] as executed by the
    sink's kind of path. Called per instruction; a runtime-library pc is
    recorded too and the line view ignores it. *)
val record_pc : pc_sink -> int -> unit

(** Total number of edges: two per user branch. *)
val edge_universe_size : t -> int

(** Edges covered by the taken path; a counter, O(1). *)
val taken_edges : t -> int

(** Edges covered by the taken path or an NT-Path; a counter, O(1). *)
val combined_edges : t -> int

(** Baseline branch coverage, percent. *)
val taken_pct : t -> float

(** Coverage including NT-Path exploration, percent. *)
val combined_pct : t -> float

(** Statement (distinct user source line) coverage of the taken path.
    Folds the line view: O(program). *)
val stmt_taken_pct : t -> float

(** Statement coverage including NT-Path exploration. Folds the line view:
    O(program). *)
val stmt_combined_pct : t -> float

(** Union [src]'s coverage into [dst] (cumulative coverage over inputs) and
    recount [dst]'s edges. *)
val merge_into : dst:t -> t -> unit

(** {2 Observatory hooks (DESIGN.md §15)}

    Frontier attribution needs to read individual edges back out of the
    bitmaps and to know {e which} NT-Path first covered an edge. The
    per-edge sequence array is only allocated (and the recording branch only
    taken) once {!arm_attribution} runs, so unobserved runs pay one
    predictable-false test per NT edge's first cover. Arm before the run
    records anything: an edge is stamped only when first covered. *)

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
    for runtime-library pcs. Staged: [pc_line_covered cov] folds the line
    view once (O(program)) and returns a predicate that answers from it in
    O(1). The predicate is a snapshot: after recording more, apply
    [pc_line_covered] again. *)
val pc_line_covered : t -> int -> bool
