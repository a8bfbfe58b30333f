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

type t = {
  code : int array;
  pool : int array;
  entry : int;
  globals_words : int;
  init_data : (int * int) list;
  sites : Site.t array;
  user_branches : int list;
  functions : (string * int) list;
  user_code_ranges : (int * int) list;
  fix_atoms : (int * Fix_atom.t) list;
  global_vars : (string * int) list;
  blank_addrs : (string * int) list;
  source_lines : int array;
}

(* Address of a named global variable. *)
let global_address program name = List.assoc_opt name program.global_vars

(* Addresses below this fault as null accesses: the unmapped null page.
   Globals start right here (the first global word is the runtime
   allocator's break). *)
let null_guard_words = 16

let max_globals_words = 1 lsl 20

exception Invalid_program of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_program s)) fmt

(* The word: opcode in bits 0-5, the predicate bit 6, the register fields
   in bits 7-11, 12-16 and 17-21, and the immediate field in bits 22-62.
   The field's values [-2^39, 2^40) are the immediate itself; its lowest
   quarter, [-2^40, -2^39), is an index into the pool. An opcode is its
   constructor's index: constant constructors are the integers 0, 1, ...
   in declaration order. *)
let pred_bit = 1 lsl 6
let imm_shift = 22
let field_min = -(1 lsl 40)
let direct_min = -(1 lsl 39)
let direct_max = (1 lsl 40) - 1

let[@inline always] opcode w : opcode = Obj.magic (w land 63)
let[@inline always] is_pred w = w land pred_bit <> 0
let[@inline always] unpred w = w land lnot pred_bit
let[@inline always] r1 w = (w lsr 7) land 31
let[@inline always] r2 w = (w lsr 12) land 31
let[@inline always] r3 w = (w lsr 17) land 31
let[@inline always] target w = w asr imm_shift

let[@inline always] imm program w =
  let v = w asr imm_shift in
  if v >= direct_min then v else Array.unsafe_get program.pool (v - field_min)

let syscalls =
  [| Insn.Sys_putc; Insn.Sys_getc; Insn.Sys_print_int; Insn.Sys_exit |]

let sys w = syscalls.(target w)

let sys_code = function
  | Insn.Sys_putc -> 0
  | Insn.Sys_getc -> 1
  | Insn.Sys_print_int -> 2
  | Insn.Sys_exit -> 3

let binop_opcode = function
  | Insn.Add -> Op_add
  | Insn.Sub -> Op_sub
  | Insn.Mul -> Op_mul
  | Insn.Div -> Op_div
  | Insn.Mod -> Op_mod
  | Insn.And -> Op_and
  | Insn.Or -> Op_or
  | Insn.Xor -> Op_xor
  | Insn.Shl -> Op_shl
  | Insn.Shr -> Op_shr

let binopi_opcode = function
  | Insn.Add -> Op_addi
  | Insn.Sub -> Op_subi
  | Insn.Mul -> Op_muli
  | Insn.Div -> Op_divi
  | Insn.Mod -> Op_modi
  | Insn.And -> Op_andi
  | Insn.Or -> Op_ori
  | Insn.Xor -> Op_xori
  | Insn.Shl -> Op_shli
  | Insn.Shr -> Op_shri

let cmp_opcode = function
  | Insn.Eq -> Op_seq
  | Insn.Ne -> Op_sne
  | Insn.Lt -> Op_slt
  | Insn.Le -> Op_sle
  | Insn.Gt -> Op_sgt
  | Insn.Ge -> Op_sge

let cmpi_opcode = function
  | Insn.Eq -> Op_seqi
  | Insn.Ne -> Op_snei
  | Insn.Lt -> Op_slti
  | Insn.Le -> Op_slei
  | Insn.Gt -> Op_sgti
  | Insn.Ge -> Op_sgei

let br_opcode = function
  | Insn.Eq -> Op_beq
  | Insn.Ne -> Op_bne
  | Insn.Lt -> Op_blt
  | Insn.Le -> Op_ble
  | Insn.Gt -> Op_bgt
  | Insn.Ge -> Op_bge

(* [pool] collects the immediates that do not fit the field. *)
let word pool (op : opcode) a b c value =
  let field =
    if value >= direct_min && value <= direct_max then value
    else begin
      Vec.push pool value;
      field_min + Vec.length pool - 1
    end
  in
  (Obj.magic op : int)
  lor (a lsl 7) lor (b lsl 12) lor (c lsl 17) lor (field lsl imm_shift)

let rec pack pool = function
  | Insn.Binop (op, rd, rs, rt) -> word pool (binop_opcode op) rd rs rt 0
  | Insn.Binopi (op, rd, rs, imm) -> word pool (binopi_opcode op) rd rs 0 imm
  | Insn.Cmp (c, rd, rs, rt) -> word pool (cmp_opcode c) rd rs rt 0
  | Insn.Cmpi (c, rd, rs, imm) -> word pool (cmpi_opcode c) rd rs 0 imm
  | Insn.Li (rd, imm) -> word pool Op_li rd 0 0 imm
  | Insn.Mov (rd, rs) -> word pool Op_mov rd rs 0 0
  | Insn.Load (rd, base, off) -> word pool Op_ld rd base 0 off
  | Insn.Store (rs, base, off) -> word pool Op_st rs base 0 off
  | Insn.Br (c, rs, rt, target) -> word pool (br_opcode c) rs rt 0 target
  | Insn.Jmp target -> word pool Op_jmp 0 0 0 target
  | Insn.Call target -> word pool Op_call 0 0 0 target
  | Insn.Ret -> word pool Op_ret 0 0 0 0
  | Insn.Push rs -> word pool Op_push rs 0 0 0
  | Insn.Pop rd -> word pool Op_pop rd 0 0 0
  | Insn.Syscall s -> word pool Op_sys 0 0 0 (sys_code s)
  | Insn.Checkz (rs, site) -> word pool Op_chkz rs 0 0 site
  | Insn.Watch (lo, hi, site) -> word pool Op_watch lo hi 0 site
  | Insn.Unwatch (lo, hi) -> word pool Op_unwatch lo hi 0 0
  | Insn.Pred inner -> pack pool inner lor pred_bit
  | Insn.Clearpred -> word pool Op_clearpred 0 0 0 0
  | Insn.Halt -> word pool Op_halt 0 0 0 0
  | Insn.Nop -> word pool Op_nop 0 0 0 0

let unpack program w =
  let a = r1 w and b = r2 w and c = r3 w in
  let binop op = Insn.Binop (op, a, b, c) in
  let binopi op = Insn.Binopi (op, a, b, imm program w) in
  let cmp op = Insn.Cmp (op, a, b, c) in
  let cmpi op = Insn.Cmpi (op, a, b, imm program w) in
  let br op = Insn.Br (op, a, b, target w) in
  let inner =
    match opcode w with
    | Op_add -> binop Insn.Add
    | Op_sub -> binop Insn.Sub
    | Op_mul -> binop Insn.Mul
    | Op_div -> binop Insn.Div
    | Op_mod -> binop Insn.Mod
    | Op_and -> binop Insn.And
    | Op_or -> binop Insn.Or
    | Op_xor -> binop Insn.Xor
    | Op_shl -> binop Insn.Shl
    | Op_shr -> binop Insn.Shr
    | Op_addi -> binopi Insn.Add
    | Op_subi -> binopi Insn.Sub
    | Op_muli -> binopi Insn.Mul
    | Op_divi -> binopi Insn.Div
    | Op_modi -> binopi Insn.Mod
    | Op_andi -> binopi Insn.And
    | Op_ori -> binopi Insn.Or
    | Op_xori -> binopi Insn.Xor
    | Op_shli -> binopi Insn.Shl
    | Op_shri -> binopi Insn.Shr
    | Op_seq -> cmp Insn.Eq
    | Op_sne -> cmp Insn.Ne
    | Op_slt -> cmp Insn.Lt
    | Op_sle -> cmp Insn.Le
    | Op_sgt -> cmp Insn.Gt
    | Op_sge -> cmp Insn.Ge
    | Op_seqi -> cmpi Insn.Eq
    | Op_snei -> cmpi Insn.Ne
    | Op_slti -> cmpi Insn.Lt
    | Op_slei -> cmpi Insn.Le
    | Op_sgti -> cmpi Insn.Gt
    | Op_sgei -> cmpi Insn.Ge
    | Op_beq -> br Insn.Eq
    | Op_bne -> br Insn.Ne
    | Op_blt -> br Insn.Lt
    | Op_ble -> br Insn.Le
    | Op_bgt -> br Insn.Gt
    | Op_bge -> br Insn.Ge
    | Op_li -> Insn.Li (a, imm program w)
    | Op_mov -> Insn.Mov (a, b)
    | Op_ld -> Insn.Load (a, b, imm program w)
    | Op_st -> Insn.Store (a, b, imm program w)
    | Op_jmp -> Insn.Jmp (target w)
    | Op_call -> Insn.Call (target w)
    | Op_ret -> Insn.Ret
    | Op_push -> Insn.Push a
    | Op_pop -> Insn.Pop a
    | Op_sys -> Insn.Syscall (sys w)
    | Op_chkz -> Insn.Checkz (a, imm program w)
    | Op_watch -> Insn.Watch (a, b, imm program w)
    | Op_unwatch -> Insn.Unwatch (a, b)
    | Op_clearpred -> Insn.Clearpred
    | Op_halt -> Insn.Halt
    | Op_nop -> Insn.Nop
  in
  if is_pred w then Insn.Pred inner else inner

let length program = Array.length program.code

let insn program pc = unpack program program.code.(pc)

let is_branch_word w =
  (not (is_pred w))
  &&
  match opcode w with
  | Op_beq | Op_bne | Op_blt | Op_ble | Op_bgt | Op_bge -> true
  | _ -> false

let all_branches program =
  let acc = ref [] in
  Array.iteri
    (fun pc w -> if is_branch_word w then acc := pc :: !acc)
    program.code;
  List.rev !acc

let rec check_insn n pc insn =
  let check_target target =
    if target < 0 || target >= n then
      invalid "instruction %d: control target %d out of code range" pc target
  in
  let check_reg r what =
    if not (Reg.is_valid r) then invalid "instruction %d: bad %s register" pc what
  in
  match insn with
  | Insn.Br (_, rs, rt, target) ->
    check_reg rs "source";
    check_reg rt "source";
    check_target target
  | Insn.Jmp target | Insn.Call target -> check_target target
  | Insn.Binop (_, rd, rs, rt) | Insn.Cmp (_, rd, rs, rt) ->
    check_reg rd "dest";
    check_reg rs "source";
    check_reg rt "source"
  | Insn.Binopi (_, rd, rs, _) | Insn.Cmpi (_, rd, rs, _) ->
    check_reg rd "dest";
    check_reg rs "source"
  | Insn.Li (rd, _) -> check_reg rd "dest"
  | Insn.Mov (rd, rs) | Insn.Load (rd, rs, _) | Insn.Store (rd, rs, _) ->
    check_reg rd "dest";
    check_reg rs "source"
  | Insn.Push r | Insn.Pop r | Insn.Checkz (r, _) -> check_reg r "operand"
  | Insn.Ret | Insn.Syscall _ | Insn.Clearpred | Insn.Halt | Insn.Nop -> ()
  | Insn.Watch (lo, hi, _) | Insn.Unwatch (lo, hi) ->
    check_reg lo "operand";
    check_reg hi "operand"
  | Insn.Pred inner ->
    (match inner with
     | Insn.Pred _ -> invalid "instruction %d: nested predication" pc
     | _ -> check_insn n pc inner)

let validate insns ~entry ~globals_words ~init_data ~sites ~user_branches =
  let n = Array.length insns in
  if n = 0 then invalid "empty code";
  if entry < 0 || entry >= n then invalid "entry out of range";
  if globals_words < 0 || globals_words > max_globals_words then
    invalid "globals segment of %d words outside [0, %d]" globals_words
      max_globals_words;
  Array.iteri (check_insn n) insns;
  List.iter
    (fun pc ->
      if pc < 0 || pc >= n then invalid "user branch pc %d out of range" pc;
      if not (Insn.is_branch insns.(pc)) then
        invalid "user branch pc %d is not a branch" pc)
    user_branches;
  Array.iteri
    (fun i site ->
      if site.Site.id <> i then invalid "site %d has id %d" i site.Site.id)
    sites;
  List.iter
    (fun (addr, _) ->
      if addr < null_guard_words || addr >= null_guard_words + globals_words
      then invalid "init data address %d outside globals" addr)
    init_data

let make ?(entry = 0) ?(globals_words = 0) ?(init_data = []) ?(sites = [||])
    ?(user_branches = []) ?(functions = []) ?(user_code_ranges = [])
    ?(fix_atoms = []) ?(global_vars = []) ?(blank_addrs = [])
    ?(source_lines = []) insns =
  validate insns ~entry ~globals_words ~init_data ~sites ~user_branches;
  let pool = Vec.create ~dummy:0 in
  let code = Array.make (Array.length insns) 0 in
  Array.iteri (fun pc insn -> code.(pc) <- pack pool insn) insns;
  let lines = Array.make (2 * List.length source_lines) 0 in
  List.iteri
    (fun i (pc, line) ->
      lines.(2 * i) <- pc;
      lines.((2 * i) + 1) <- line)
    source_lines;
  {
    code;
    pool = Vec.to_array pool;
    entry;
    globals_words;
    init_data;
    sites;
    user_branches;
    functions;
    user_code_ranges;
    fix_atoms;
    global_vars;
    blank_addrs;
    source_lines = lines;
  }

let line_of_pc program pc =
  (* source_lines is sorted by pc; find the last entry at or before pc. *)
  let lines = program.source_lines in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if lines.(2 * mid) <= pc then search (mid + 1) hi lines.((2 * mid) + 1)
      else search lo (mid - 1) best
  in
  search 0 ((Array.length lines / 2) - 1) 0

let function_of_pc program pc =
  let best = ref None in
  List.iter
    (fun (name, fpc) ->
      if fpc <= pc then
        match !best with
        | Some (_, bpc) when bpc >= fpc -> ()
        | _ -> best := Some (name, fpc))
    program.functions;
  Option.map fst !best

let disassemble ?(lo = 0) ?hi program =
  let hi = match hi with Some h -> h | None -> length program in
  let buf = Buffer.create 1024 in
  for pc = lo to hi - 1 do
    let label =
      match List.find_opt (fun (_, fpc) -> fpc = pc) program.functions with
      | Some (name, _) -> Printf.sprintf "%s:\n" name
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%5d: %s\n" label pc (Insn.to_string (insn program pc)))
  done;
  Buffer.contents buf
