(** The instrumented step's hooks: what the fast tier's body refuses to do.

    The ISA has one body, [Fast_loop]'s: it alone spells out an ordinary
    instruction's registers, memory, control flow, stats and coverage.
    An instruction that needs more stops the fast tier before it, and the
    driver ([Fast_loop.drive], the one caller of this module) runs the
    hooks here and then lets the same body commit the instruction: the
    watch unit's reports and the store hook of a data access ({!access}),
    and the instructions that are all hook — syscalls, watch and unwatch,
    checks and halt ({!step}). A hook runs before its instruction retires,
    so a report is stamped with the instruction's issue cycle. *)

type fault =
  | Mem_fault of Memory.fault
  | Div_by_zero
  | Bad_pc of int
  | Sandbox_overflow
      (** an [Ev_overflow] reached a context that has no sandbox — provably
          unreachable (only sandboxed writes can overflow); kept as a
          graceful fault so a broken invariant degrades instead of crashing *)

(** What one instruction on the instrumented step left the driver to do. *)
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

(** [access machine ctx ~write addr value]: the hooks of a data access to
    the valid word [addr] — a report for every watched range containing it
    and, for a write of [value] into the store hook's range, the hook. *)
val access : Machine.t -> Context.t -> write:bool -> int -> int -> unit

(** [step machine ctx w] runs [w], the packed word of the instruction at
    [ctx.pc] (a predicated one's inner word), when it is a syscall, a
    checkz, a watch, an unwatch or a halt, and returns its event; the
    caller retires it. A sandboxed syscall is reported, not
    executed, and leaves the pc on it. Raises [Invalid_argument] on any
    other instruction: the fast tier's body runs those. *)
val step : Machine.t -> Context.t -> int -> event
