(** The instruction interpreter.

    [step] executes exactly one instruction in a context and returns the
    event the surrounding driver must act on. PathExpander logic (BTB
    updates, NT-Path spawning, termination) lives entirely outside this
    module: [Fast_loop.drive] is the one caller of [step], and serves the
    baseline run, the taken path, NT-Paths and the software-PathExpander
    implementation alike. *)

type fault =
  | Mem_fault of Memory.fault
  | Div_by_zero
  | Bad_pc of int
  | Sandbox_overflow
      (** an [Ev_overflow] reached a context that has no sandbox — provably
          unreachable (only sandboxed writes can overflow); kept as a
          graceful fault so a broken invariant degrades instead of crashing *)

type event =
  | Ev_normal
  | Ev_branch
      (** the branch was resolved and the pc already follows its direction;
          the branch's pc, direction and taken-target are in the context's
          [br_pc]/[br_taken]/[br_target] scratch fields (fallthrough is
          [br_pc + 1]) — a payload-free constructor keeps the hottest event
          allocation-free *)
  | Ev_syscall of Insn.sys
      (** only returned from a sandboxed context, *before* executing the
          syscall: the unsafe event that squashes an NT-Path *)
  | Ev_exit of int
  | Ev_halt
  | Ev_fault of fault
      (** the instruction faulted; in an NT-Path the engine squashes and the
          exception is never delivered *)
  | Ev_overflow
      (** a sandboxed write exceeded the L1's buffering capacity *)

val fault_to_string : fault -> string

(** {2 Register effects}

    The per-opcode register semantics, shared by {!step} and the selective
    fast tier ([Fast_loop]) and inlined into both. Operands are register
    values (or immediates); the destination is a register index. *)

(** [write_reg regs rd v]: the r0 rule — a write to [Reg.zero] is dropped,
    so its slot always reads 0. *)
val write_reg : int array -> int -> int -> unit

(** ALU ops ([Div]/[Mod] excluded — decode splits them out). *)
val exec_alu : int array -> Insn.binop -> int -> int -> int -> unit

(** Compare: writes 1 or 0. *)
val exec_cmp : int array -> Insn.cmp -> int -> int -> int -> unit

(** Division and remainder; the caller has already faulted a zero
    divisor. *)
val exec_div : int array -> int -> int -> int -> unit

val exec_mod : int array -> int -> int -> int -> unit

val step : Machine.t -> Context.t -> event
