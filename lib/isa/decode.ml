(* Program-load-time decode of [Insn.t] into a flat execution form.

   The interpreter's hot loop dispatches on this form instead of the
   assembler-facing [Insn.t]: register operands are resolved to plain array
   indices, the faulting binops (Div/Mod, which must check for a zero
   divisor) are split out of the allocation-free ALU fast path, and branches
   carry their pre-resolved target. Decoding happens once per program load
   ([Machine.create]), never on the hot path. *)

type t =
  | D_alu of Insn.binop * int * int * int
      (* op is never Div/Mod: evaluation cannot fault or allocate *)
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

let rec decode_insn insn =
  match insn with
  | Insn.Binop (Insn.Div, rd, rs, rt) -> D_div (rd, rs, rt)
  | Insn.Binop (Insn.Mod, rd, rs, rt) -> D_mod (rd, rs, rt)
  | Insn.Binop (op, rd, rs, rt) -> D_alu (op, rd, rs, rt)
  | Insn.Binopi (Insn.Div, rd, rs, imm) -> D_divi (rd, rs, imm)
  | Insn.Binopi (Insn.Mod, rd, rs, imm) -> D_modi (rd, rs, imm)
  | Insn.Binopi (op, rd, rs, imm) -> D_alui (op, rd, rs, imm)
  | Insn.Cmp (c, rd, rs, rt) -> D_cmp (c, rd, rs, rt)
  | Insn.Cmpi (c, rd, rs, imm) -> D_cmpi (c, rd, rs, imm)
  | Insn.Li (rd, imm) -> D_li (rd, imm)
  | Insn.Mov (rd, rs) -> D_mov (rd, rs)
  | Insn.Load (rd, base, off) -> D_load (rd, base, off)
  | Insn.Store (rs, base, off) -> D_store (rs, base, off)
  | Insn.Br (c, rs, rt, target) -> D_br (c, rs, rt, target)
  | Insn.Jmp target -> D_jmp target
  | Insn.Call target -> D_call target
  | Insn.Ret -> D_ret
  | Insn.Push rs -> D_push rs
  | Insn.Pop rd -> D_pop rd
  | Insn.Syscall sys -> D_syscall sys
  | Insn.Checkz (rs, site) -> D_checkz (rs, site)
  | Insn.Watch (lo, hi, site) -> D_watch (lo, hi, site)
  | Insn.Unwatch (lo, hi) -> D_unwatch (lo, hi)
  | Insn.Pred inner -> D_pred (decode_insn inner)
  | Insn.Clearpred -> D_clearpred
  | Insn.Halt -> D_halt
  | Insn.Nop -> D_nop

(* [Array.map] builds an image bigger than the minor heap from a young first
   element, which makes the runtime run a minor collection first. That
   collection is kept on purpose: it lands just after a fresh compile, when
   the compiler's intermediate data is already dead, so the next compile
   starts on an empty minor heap instead of being collected half-way with
   its working set live. Filling the array in place instead cut the
   campaign's compile-run throughput from 493 to 416 ops/s (median of six
   alternating 20 s pairs, release build, 2-vCPU VM). *)
let decode code = Array.map decode_insn code
