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

type sys =
  | Sys_putc
  | Sys_getc
  | Sys_print_int
  | Sys_exit

type t =
  | Binop of binop * Reg.t * Reg.t * Reg.t
  | Binopi of binop * Reg.t * Reg.t * int
  | Cmp of cmp * Reg.t * Reg.t * Reg.t
  | Cmpi of cmp * Reg.t * Reg.t * int
  | Li of Reg.t * int
  | Mov of Reg.t * Reg.t
  | Load of Reg.t * Reg.t * int
  | Store of Reg.t * Reg.t * int
  | Br of cmp * Reg.t * Reg.t * int
  | Jmp of int
  | Call of int
  | Ret
  | Push of Reg.t
  | Pop of Reg.t
  | Syscall of sys
  | Checkz of Reg.t * int
  | Watch of Reg.t * Reg.t * int
  | Unwatch of Reg.t * Reg.t
  | Pred of t
  | Clearpred
  | Halt
  | Nop

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let sys_name = function
  | Sys_putc -> "putc"
  | Sys_getc -> "getc"
  | Sys_print_int -> "print_int"
  | Sys_exit -> "exit"

(* Single source of truth for ALU and compare semantics: one function per
   operator. [eval_alu]/[eval_binop]/[eval_cmp] (constant folding among
   their users) dispatch to these, and the interpreter's one body
   ([Fast_loop]) calls them from its per-opcode arms, so a semantics fix
   lands exactly once. [div]/[rem] are only ever called with a non-zero
   divisor. *)
let[@inline always] add (a : int) b = a + b
let[@inline always] sub (a : int) b = a - b
let[@inline always] mul (a : int) b = a * b
let[@inline always] div (a : int) b = a / b
let[@inline always] rem (a : int) b = a mod b
let[@inline always] logand (a : int) b = a land b
let[@inline always] logor (a : int) b = a lor b
let[@inline always] logxor (a : int) b = a lxor b
let[@inline always] shl (a : int) b = a lsl (b land 63)
let[@inline always] shr (a : int) b = a asr (b land 63)
let[@inline always] eq (a : int) b = a = b
let[@inline always] ne (a : int) b = a <> b
let[@inline always] lt (a : int) b = a < b
let[@inline always] le (a : int) b = a <= b
let[@inline always] gt (a : int) b = a > b
let[@inline always] ge (a : int) b = a >= b

let eval_alu op a b =
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shl a b
  | Shr -> shr a b
  | Div | Mod -> assert false

let eval_binop op a b =
  match op with
  | Div -> if b = 0 then None else Some (div a b)
  | Mod -> if b = 0 then None else Some (rem a b)
  | Add | Sub | Mul | And | Or | Xor | Shl | Shr -> Some (eval_alu op a b)

let eval_cmp c a b =
  match c with
  | Eq -> eq a b
  | Ne -> ne a b
  | Lt -> lt a b
  | Le -> le a b
  | Gt -> gt a b
  | Ge -> ge a b

(* The edge forced by negating [c]: the condition that holds on the
   fallthrough (non-taken-target) edge of [Br (c, _, _, _)]. *)
let negate_cmp = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let rec to_string insn =
  let r = Reg.name in
  match insn with
  | Binop (op, rd, rs, rt) ->
    Printf.sprintf "%-5s %s, %s, %s" (binop_name op) (r rd) (r rs) (r rt)
  | Binopi (op, rd, rs, imm) ->
    Printf.sprintf "%-5s %s, %s, %d" (binop_name op ^ "i") (r rd) (r rs) imm
  | Cmp (c, rd, rs, rt) ->
    Printf.sprintf "%-5s %s, %s, %s" ("s" ^ cmp_name c) (r rd) (r rs) (r rt)
  | Cmpi (c, rd, rs, imm) ->
    Printf.sprintf "%-5s %s, %s, %d" ("s" ^ cmp_name c ^ "i") (r rd) (r rs) imm
  | Li (rd, imm) -> Printf.sprintf "li    %s, %d" (r rd) imm
  | Mov (rd, rs) -> Printf.sprintf "mov   %s, %s" (r rd) (r rs)
  | Load (rd, base, off) -> Printf.sprintf "ld    %s, %d(%s)" (r rd) off (r base)
  | Store (rs, base, off) -> Printf.sprintf "st    %s, %d(%s)" (r rs) off (r base)
  | Br (c, rs, rt, target) ->
    Printf.sprintf "b%-4s %s, %s, @%d" (cmp_name c) (r rs) (r rt) target
  | Jmp target -> Printf.sprintf "jmp   @%d" target
  | Call target -> Printf.sprintf "call  @%d" target
  | Ret -> "ret"
  | Push rs -> Printf.sprintf "push  %s" (r rs)
  | Pop rd -> Printf.sprintf "pop   %s" (r rd)
  | Syscall s -> Printf.sprintf "sys   %s" (sys_name s)
  | Checkz (rs, site) -> Printf.sprintf "chkz  %s, site:%d" (r rs) site
  | Watch (lo, hi, site) ->
    Printf.sprintf "watch %s, %s, site:%d" (r lo) (r hi) site
  | Unwatch (lo, hi) -> Printf.sprintf "unwat %s, %s" (r lo) (r hi)
  | Pred inner -> Printf.sprintf "<p> %s" (to_string inner)
  | Clearpred -> "clrp"
  | Halt -> "halt"
  | Nop -> "nop"

let pp fmt insn = Format.pp_print_string fmt (to_string insn)

let is_branch = function Br _ -> true | _ -> false

let rec is_memory_access = function
  | Load _ | Store _ | Push _ | Pop _ -> true
  | Pred inner -> is_memory_access inner
  | Binop _ | Binopi _ | Cmp _ | Cmpi _ | Li _ | Mov _ | Br _ | Jmp _ | Call _
  | Ret | Syscall _ | Checkz _ | Watch _ | Unwatch _ | Clearpred | Halt | Nop ->
    false
