(** Instruction set of the simulated machine.

    A RISC-like register ISA with one extension from the paper: instructions
    can be *predicated* ([Pred]) on the core's predicate register, which is
    set only at the entrance of an NT-Path; elsewhere predicated instructions
    retire as NOPs. [Checkz] is the report instruction used by the dynamic
    bug detectors (its result is stored to the monitor memory area, which the
    sandbox never rolls back), and [Watch]/[Unwatch] program the
    iWatcher-style hardware watchpoint unit. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | And
  | Or
  | Xor
  | Shl
  | Shr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Syscalls; all are unsafe events that terminate an NT-Path. *)
type sys =
  | Sys_putc  (** write char in [a0] to program output *)
  | Sys_getc  (** read next input char into [rv], -1 at end of input *)
  | Sys_print_int  (** write decimal of [a0] to program output *)
  | Sys_exit  (** terminate the program with status [a0] *)

type t =
  | Binop of binop * Reg.t * Reg.t * Reg.t  (** [rd <- rs op rt] *)
  | Binopi of binop * Reg.t * Reg.t * int  (** [rd <- rs op imm] *)
  | Cmp of cmp * Reg.t * Reg.t * Reg.t  (** [rd <- rs cmp rt ? 1 : 0] *)
  | Cmpi of cmp * Reg.t * Reg.t * int
  | Li of Reg.t * int
  | Mov of Reg.t * Reg.t
  | Load of Reg.t * Reg.t * int  (** [rd <- mem\[base + off\]] *)
  | Store of Reg.t * Reg.t * int  (** [mem\[base + off\] <- rs] *)
  | Br of cmp * Reg.t * Reg.t * int
      (** conditional branch to absolute pc; fallthrough otherwise. The pc of
          the instruction itself identifies the branch (BTB, coverage). *)
  | Jmp of int
  | Call of int  (** pushes the return pc on the stack *)
  | Ret
  | Push of Reg.t
  | Pop of Reg.t
  | Syscall of sys
  | Checkz of Reg.t * int
      (** detector check: if [rs = 0], file a report for report-site [site].
          Branch-free so that detectors never perturb branch statistics. *)
  | Watch of Reg.t * Reg.t * int
      (** watch addresses in [\[rs, rt)]; an access files a report for
          [site] *)
  | Unwatch of Reg.t * Reg.t
  | Pred of t  (** executes only when the predicate register is set *)
  | Clearpred  (** clear the predicate register *)
  | Halt
  | Nop

val binop_name : binop -> string
val cmp_name : cmp -> string
val sys_name : sys -> string

(** {2 Semantics}

    One function per operator: the single source of truth for ALU and
    compare semantics. The [eval_*] dispatchers below and the interpreter's
    per-opcode arms all resolve here. [div] and [rem] must not be called
    with a zero divisor; shifts use the low 6 bits of their count. *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
val div : int -> int -> int
val rem : int -> int -> int
val logand : int -> int -> int
val logor : int -> int -> int
val logxor : int -> int -> int
val shl : int -> int -> int
val shr : int -> int -> int
val eq : int -> int -> bool
val ne : int -> int -> bool
val lt : int -> int -> bool
val le : int -> int -> bool
val gt : int -> int -> bool
val ge : int -> int -> bool

(** Evaluate a non-faulting binop. Raises [Assert_failure] on
    [Div]/[Mod]. *)
val eval_alu : binop -> int -> int -> int

(** [eval_binop op a b] is [None] on division/modulo by zero. *)
val eval_binop : binop -> int -> int -> int option

val eval_cmp : cmp -> int -> int -> bool

(** Comparison holding on the fallthrough edge of a branch on [c]. *)
val negate_cmp : cmp -> cmp

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** True for conditional branches only ([Br]). *)
val is_branch : t -> bool

(** True for instructions that touch data memory (including predicated
    ones). *)
val is_memory_access : t -> bool
