(** Per-path execution context: registers, pc, predicate register, cycle
    statistics, the L1 cache the path uses for timing, and — for NT-Paths —
    the sandbox that buffers memory writes (the semantic model of the
    paper's versioned L1 buffering). The sandbox is the only NT-Path
    buffering scheme: the hardware engines and the software PathExpander
    both run their paths in one, through [Nt_path.run].

    The sandbox stores written words in a flat generation-stamped overlay
    keyed by address and tracks how many distinct cache lines the path has
    dirtied; exceeding its line limit (the L1's line capacity for the
    hardware design) forces a squash. Contexts and sandboxes are designed
    for pooling: {!reset_for_spawn} and {!reset_sandbox} recycle them
    across spawns without allocation; a sandbox allocates only when a path
    writes more than any path before it. *)

type stats = {
  mutable insns : int;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
}

val fresh_stats : unit -> stats

type sandbox

type t = {
  regs : int array;
  mutable pc : int;
  mutable pred : bool;  (** the predicate register of Section 4.4 *)
  mutable in_pred_fix : bool;
      (** currently executing a predicated consistency-fix instruction —
          observation hooks use this to tell PathExpander's own stores from
          the program's *)
  mutable sandbox : sandbox option;
  stats : stats;
  mutable l1 : Cache.t;
  mutable br_pc : int;
      (** scratch: pc of the branch behind the latest [Cpu.Ev_branch] *)
  mutable br_taken : bool;  (** scratch: was that branch taken *)
  mutable br_target : int;
      (** scratch: its taken-side target (fallthrough is [br_pc + 1]) *)
}

(** Fresh context with [sp = fp = sp] and zeroed registers. *)
val create : l1:Cache.t -> pc:int -> sp:int -> t

(** Re-aim a pooled context at a new spawn: zero the statistics, clear the
    predicate machinery, detach any sandbox and retarget the L1. The caller
    remains responsible for seeding the register file. *)
val reset_for_spawn : t -> l1:Cache.t -> pc:int -> unit

(** Reads of [Reg.zero] always give 0. *)
val get_reg : t -> Reg.t -> int

(** Writes to [Reg.zero] are discarded. *)
val set_reg : t -> Reg.t -> int -> unit

(** Overlay sandbox (versioned-L1 buffering). The overlay is a flat store
    that starts small and grows with what its paths write; [line_limit]
    bounds the dirty lines of one path. Reusable via {!reset_sandbox}. *)
val make_sandbox : path_id:int -> line_limit:int -> words_per_line:int -> sandbox

(** Recycle a sandbox for the next spawn — O(1). *)
val reset_sandbox : sandbox -> path_id:int -> unit

val enter_sandbox : t -> sandbox -> unit
val is_sandboxed : t -> bool

(** Version tag for cache lines written by this context
    ([Cache.committed_owner] when not sandboxed). *)
val path_id : t -> int

(** The sandbox's own path id — for callers that already matched on
    [ctx.sandbox] and hold the payload. *)
val sandbox_path_id : sandbox -> int

(** Record the spawn provenance of the path running in this sandbox: the
    spawning branch pc and the forced (non-taken) direction. Cleared to
    [-1]/[false] by {!reset_sandbox}; reports filed inside the path carry
    these so every bug gains its path origin. *)
val set_spawn_info : sandbox -> br_pc:int -> edge:bool -> unit

(** Spawning branch pc ([-1] when never set). *)
val sandbox_spawn_pc : sandbox -> int

(** Forced branch direction at spawn ([false] when never set). *)
val sandbox_spawn_edge : sandbox -> bool

(** Read through the sandbox overlay when present. *)
val read_mem : t -> Memory.t -> int -> int

(** Read through a sandbox directly: the path's own buffered version first,
    falling back to committed memory. *)
val sandbox_read : sandbox -> Memory.t -> int -> int

(** Buffer a write; [false] when the path overflowed its L1 capacity.
    Raises [Memory.Fault] on an inaccessible address. *)
val sandbox_write : sandbox -> Memory.t -> int -> int -> bool

val dirty_line_count : sandbox -> int

(** Record a watchpoint mutation for undo at squash. *)
val journal_watch : sandbox -> Watchpoints.journal_entry -> unit

(** Undo all journaled watchpoint mutations. *)
val undo_watches : sandbox -> Watchpoints.t -> unit
