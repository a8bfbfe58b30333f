(** Executable program images.

    A program is a packed code image — one [int] word per instruction, the
    pc is the array index — a globals segment with optional initial data,
    the table of detector report sites, and metadata produced by the
    compiler: which branches belong to *user* code (the branch-coverage
    universe — runtime-library branches are excluded, mirroring how the
    paper reports per-application coverage), the function table, and the
    addresses of the per-type blank structures used by NT-Path pointer
    fixing.

    {!make} is the only constructor: it validates the instructions, then
    packs them. The interpreter runs the words in place through the field
    readers below; everything else reads an instruction back as an
    [Insn.t] with {!insn}. *)

type t = private {
  code : int array;
      (** one packed word per instruction; read it with the field readers
          below, and never write into it *)
  pool : int array;  (** immediates too wide for a word's field *)
  entry : int;  (** pc of [main] *)
  globals_words : int;  (** size of the globals segment, in words *)
  init_data : (int * int) list;  (** initialised global words: (addr, value) *)
  sites : Site.t array;  (** report sites, indexed by id *)
  user_branches : int list;  (** pcs of coverage-counted conditional branches *)
  functions : (string * int) list;  (** function name -> entry pc *)
  user_code_ranges : (int * int) list;
      (** [\[start, end)] pc ranges of user (non-runtime-library) functions:
          the statement-coverage universe *)
  fix_atoms : (int * Fix_atom.t) list;
      (** branch pc -> fixable-condition description (the profiled-fixing
          extension's compiler hints) *)
  global_vars : (string * int) list;  (** global variable name -> address *)
  blank_addrs : (string * int) list;  (** type name -> blank structure address *)
  source_lines : int array;
      (** (pc, source line) pairs sorted by pc, flattened to pc0, line0,
          pc1, line1, ... so that a pair costs two words, not a block *)
}

(** Size of the unmapped null page: accesses below this address fault.
    Globals start at this address. *)
val null_guard_words : int

(** The largest globals segment a program may have, in words: 60 times
    the largest registry segment (164.gzip's 17,246). A bound keeps the
    address space [Memory] lays out behind the segment from wrapping past
    [max_int] and its page table to a size the segment's program can use. *)
val max_globals_words : int

exception Invalid_program of string

(** [make code] validates, then packs. Omitted metadata is empty, the
    entry pc 0. Raises {!Invalid_program} on empty code, an entry out of
    range, dangling control targets, bad registers, nested predication, a
    user branch that is not a conditional branch, ill-indexed sites,
    out-of-segment initial data or a globals segment outside
    [[0, max_globals_words]]. *)
val make :
  ?entry:int ->
  ?globals_words:int ->
  ?init_data:(int * int) list ->
  ?sites:Site.t array ->
  ?user_branches:int list ->
  ?functions:(string * int) list ->
  ?user_code_ranges:(int * int) list ->
  ?fix_atoms:(int * Fix_atom.t) list ->
  ?global_vars:(string * int) list ->
  ?blank_addrs:(string * int) list ->
  ?source_lines:(int * int) list ->
  Insn.t array ->
  t

(** Number of instructions. *)
val length : t -> int

(** [insn p pc] unpacks the instruction at [pc]: exactly the [Insn.t]
    that {!make} was given there. *)
val insn : t -> int -> Insn.t

(** {2 The packed word}

    A word holds, from the low bits up: a 6-bit {!opcode}, the predicate
    bit, three 5-bit register fields holding the instruction's register
    operands in [Insn.t]'s order, and a signed 41-bit immediate (a memory
    offset, a control target, a site id, a syscall or a literal). An
    immediate outside [[-2^39, 2^40)] lives in the program's [pool] and
    the field holds its index there, so every [int] round-trips. A
    predicated word is its inner instruction's word with the predicate
    bit set. *)

(** One opcode per instruction kind and operator: [Op_add] is
    [Binop (Add, _, _, _)], [Op_addi] is [Binopi (Add, _, _, _)], [Op_slt]
    is [Cmp (Lt, _, _, _)], [Op_blt] is [Br (Lt, _, _, _)], and so on. *)
type opcode =
  | Op_add
  | Op_sub
  | Op_mul
  | Op_div
  | Op_mod
  | Op_and
  | Op_or
  | Op_xor
  | Op_shl
  | Op_shr
  | Op_addi
  | Op_subi
  | Op_muli
  | Op_divi
  | Op_modi
  | Op_andi
  | Op_ori
  | Op_xori
  | Op_shli
  | Op_shri
  | Op_seq
  | Op_sne
  | Op_slt
  | Op_sle
  | Op_sgt
  | Op_sge
  | Op_seqi
  | Op_snei
  | Op_slti
  | Op_slei
  | Op_sgti
  | Op_sgei
  | Op_beq
  | Op_bne
  | Op_blt
  | Op_ble
  | Op_bgt
  | Op_bge
  | Op_li
  | Op_mov
  | Op_ld
  | Op_st
  | Op_jmp
  | Op_call
  | Op_ret
  | Op_push
  | Op_pop
  | Op_sys
  | Op_chkz
  | Op_watch
  | Op_unwatch
  | Op_clearpred
  | Op_halt
  | Op_nop

(** The word's opcode; a predicated word's is its inner instruction's. *)
val opcode : int -> opcode

(** The predicate bit is set. *)
val is_pred : int -> bool

(** The inner instruction of a predicated word. *)
val unpred : int -> int

(** The first, second and third register operand. *)
val r1 : int -> int
val r2 : int -> int
val r3 : int -> int

(** [imm p w] is the immediate of [w], a word of [p]. *)
val imm : t -> int -> int

(** The target of a conditional branch, jump or call: {!make} checks it is
    a pc, so it never lives in the pool. *)
val target : int -> int

(** The syscall of an [Op_sys] word. *)
val sys : int -> Insn.sys

(** Pcs of every conditional branch in the image (user and runtime). *)
val all_branches : t -> int list

(** Address of a named global variable, if any. *)
val global_address : t -> string -> int option

(** Source line generating the instruction at [pc] (0 when unknown). *)
val line_of_pc : t -> int -> int

(** Name of the function containing [pc], if any. *)
val function_of_pc : t -> int -> string option

(** Textual disassembly of [\[lo, hi)] (defaults: whole image). *)
val disassemble : ?lo:int -> ?hi:int -> t -> string
