(** Program-load-time decode of [Insn.t] into a flat execution form for the
    interpreter's hot loop: resolved register indices, faulting binops
    (Div/Mod) split out of the allocation-free ALU fast path, pre-resolved
    branch targets. Decoded once per program load, shared by every engine
    (baseline, taken path, NT-Paths, software PathExpander). *)

type t =
  | D_alu of Insn.binop * int * int * int
      (** never Div/Mod: evaluation cannot fault *)
  | D_alui of Insn.binop * int * int * int
  | D_div of int * int * int
  | D_mod of int * int * int
  | D_divi of int * int * int
  | D_modi of int * int * int
  | D_cmp of Insn.cmp * int * int * int
  | D_cmpi of Insn.cmp * int * int * int
  | D_li of int * int
  | D_mov of int * int
  | D_load of int * int * int
  | D_store of int * int * int
  | D_br of Insn.cmp * int * int * int
  | D_jmp of int
  | D_call of int
  | D_ret
  | D_push of int
  | D_pop of int
  | D_syscall of Insn.sys
  | D_checkz of int * int
  | D_watch of int * int * int
  | D_unwatch of int * int
  | D_pred of t
  | D_clearpred
  | D_halt
  | D_nop

(** Decode a whole code array; [decode code].(pc) executes [code.(pc)]. *)
val decode : Insn.t array -> t array
