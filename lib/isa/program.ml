type t = {
  code : Insn.t array;
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
  source_lines : (int * int) array;
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

let all_branches program =
  let acc = ref [] in
  Array.iteri
    (fun pc insn -> if Insn.is_branch insn then acc := pc :: !acc)
    program.code;
  List.rev !acc

let rec check_insn program pc insn =
  let n = Array.length program.code in
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
     | _ -> check_insn program pc inner)

let validate program =
  let n = Array.length program.code in
  if n = 0 then invalid "empty code";
  if program.entry < 0 || program.entry >= n then invalid "entry out of range";
  if program.globals_words < 0 || program.globals_words > max_globals_words
  then
    invalid "globals segment of %d words outside [0, %d]" program.globals_words
      max_globals_words;
  Array.iteri (check_insn program) program.code;
  List.iter
    (fun pc ->
      if pc < 0 || pc >= n then invalid "user branch pc %d out of range" pc;
      if not (Insn.is_branch program.code.(pc)) then
        invalid "user branch pc %d is not a branch" pc)
    program.user_branches;
  Array.iteri
    (fun i site ->
      if site.Site.id <> i then invalid "site %d has id %d" i site.Site.id)
    program.sites;
  List.iter
    (fun (addr, _) ->
      if addr < null_guard_words || addr >= null_guard_words + program.globals_words
      then invalid "init data address %d outside globals" addr)
    program.init_data

let line_of_pc program pc =
  (* source_lines is sorted by pc; find the last entry at or before pc. *)
  let n = Array.length program.source_lines in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let mpc, line = program.source_lines.(mid) in
      if mpc <= pc then search (mid + 1) hi line else search lo (mid - 1) best
  in
  search 0 (n - 1) 0

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
  let hi = match hi with Some h -> h | None -> Array.length program.code in
  let buf = Buffer.create 1024 in
  for pc = lo to hi - 1 do
    let label =
      match List.find_opt (fun (_, fpc) -> fpc = pc) program.functions with
      | Some (name, _) -> Printf.sprintf "%s:\n" name
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%5d: %s\n" label pc (Insn.to_string program.code.(pc)))
  done;
  Buffer.contents buf
