(* An executable reference semantics for the PathExpander ISA.

   The oracle the simulator's interpreter is checked against. It runs the
   assembler-facing [Insn.t] directly (no decode step) over one flat [int
   array] of memory laid out like the machine's: an unmapped null page,
   globals, heap and a downward stack whose initial pointer is the size of
   the space. An NT-Path buffers its writes in a plain map over that array.
   There is no cache, no BTB and no cycle model: only architectural state,
   output and detector reports.

   Written from the ISA's definition, not from the interpreter: this file
   uses nothing of the machine or core libraries beyond the instruction,
   register and program types, so a bug in the shared interpreter body
   cannot be copied into its own oracle. *)

type fault = Null_access | Out_of_range of int | Div_by_zero | Bad_pc of int

type stop =
  | Halted
  | Exited of int
  | Faulted of fault
  | Limit  (* the instruction budget ran out *)
  | Unsafe of Insn.sys  (* a syscall inside an NT-Path, not executed *)
  | Overflow  (* an NT-Path dirtied more lines than its buffer holds *)

type report = {
  site : int;
  pc : int;
  index : int;  (* dynamic instruction count when filed, NT-Paths included *)
  on_nt_path : bool;
}

(* A watched range; the newest range is listed first. *)
type range = { lo : int; hi : int; rsite : int }

(* An NT-Path's write buffer: the words it wrote and the lines they dirty. *)
type overlay = {
  words : (int, int) Hashtbl.t;
  lines : (int, unit) Hashtbl.t;
  line_limit : int;
  words_per_line : int;
}

type t = {
  code : Insn.t array;
  mem : int array;  (* committed memory; its length is the stack base *)
  mutable regs : int array;
  mutable pc : int;
  mutable pred : bool;
  mutable ranges : range list;
  input : string;
  mutable input_pos : int;
  out : Buffer.t;
  mutable reports : report list;  (* newest first *)
  mutable index : int;
  mutable overlay : overlay option;  (* [Some] inside an NT-Path *)
  mutable insns : int;  (* retired by the current path *)
}

(* The outcome of one instruction. *)
type event =
  | Next
  | Branch of int * bool * int  (* pc, taken, taken-side target *)
  | Stop of stop

let null_guard = Program.null_guard_words

let create ?(input = "") ~heap_words ~stack_words (program : Program.t) =
  let heap_base = null_guard + program.Program.globals_words in
  let stack_base = heap_base + heap_words + stack_words in
  let mem = Array.make stack_base 0 in
  List.iter (fun (a, v) -> mem.(a) <- v) program.Program.init_data;
  (* the runtime's bump allocator keeps its break in the first global *)
  if program.Program.globals_words > 0 then mem.(null_guard) <- heap_base;
  let regs = Array.make Reg.count 0 in
  regs.(Reg.sp) <- stack_base;
  regs.(Reg.fp) <- stack_base;
  {
    code = Array.init (Program.length program) (Program.insn program);
    mem;
    regs;
    pc = program.Program.entry;
    pred = false;
    ranges = [];
    input;
    input_pos = 0;
    out = Buffer.create 64;
    reports = [];
    index = 0;
    overlay = None;
    insns = 0;
  }

exception Fault of fault

let reg m r = if r = Reg.zero then 0 else m.regs.(r)
let set m r v = if r <> Reg.zero then m.regs.(r) <- v

let valid m a = a >= null_guard && a < Array.length m.mem

let fault_at m a =
  if a >= 0 && a < null_guard then Null_access
  else if a < 0 || a >= Array.length m.mem then Out_of_range a
  else invalid_arg "Ref_model.fault_at: a valid address"

let file m site =
  m.reports <-
    { site; pc = m.pc; index = m.index; on_nt_path = m.overlay <> None }
    :: m.reports

(* Every access is checked for validity first: a faulting access reaches
   no watchpoint. Then each range containing the word fires. *)
let touch m a =
  if not (valid m a) then raise (Fault (fault_at m a));
  List.iter (fun r -> if a >= r.lo && a < r.hi then file m r.rsite) m.ranges

let load m a =
  touch m a;
  match m.overlay with
  | Some o -> (
    match Hashtbl.find_opt o.words a with Some v -> v | None -> m.mem.(a))
  | None -> m.mem.(a)

(* [false]: the write took an NT-Path past its line budget. The write
   itself is still buffered. *)
let store m a v =
  touch m a;
  match m.overlay with
  | Some o ->
    Hashtbl.replace o.words a v;
    Hashtbl.replace o.lines (a / o.words_per_line) ();
    Hashtbl.length o.lines <= o.line_limit
  | None ->
    m.mem.(a) <- v;
    true

let cmp c a b =
  match c with
  | Insn.Eq -> a = b
  | Insn.Ne -> a <> b
  | Insn.Lt -> a < b
  | Insn.Le -> a <= b
  | Insn.Gt -> a > b
  | Insn.Ge -> a >= b

(* A shift amount is taken modulo the 64-bit word. *)
let amount b = ((b mod 64) + 64) mod 64

let alu op a b =
  match op with
  | Insn.Add -> a + b
  | Insn.Sub -> a - b
  | Insn.Mul -> a * b
  | Insn.Div -> if b = 0 then raise (Fault Div_by_zero) else a / b
  | Insn.Mod -> if b = 0 then raise (Fault Div_by_zero) else a mod b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b
  | Insn.Shl -> a lsl amount b
  | Insn.Shr -> a asr amount b

let next m =
  m.pc <- m.pc + 1;
  Next

(* A write that overflowed retires in place: the pc stays on it. *)
let written m ok = if ok then next m else Stop Overflow

let syscall m sys =
  match m.overlay, sys with
  | Some _, _ -> Stop (Unsafe sys)
  | None, Insn.Sys_putc ->
    Buffer.add_char m.out (Char.chr (reg m (Reg.arg 0) land 0xff));
    next m
  | None, Insn.Sys_getc ->
    let c =
      if m.input_pos < String.length m.input then begin
        m.input_pos <- m.input_pos + 1;
        Char.code m.input.[m.input_pos - 1]
      end
      else -1
    in
    set m Reg.rv c;
    next m
  | None, Insn.Sys_print_int ->
    Buffer.add_string m.out (string_of_int (reg m (Reg.arg 0)));
    next m
  | None, Insn.Sys_exit -> Stop (Exited (reg m (Reg.arg 0)))

let push m v =
  let sp = reg m Reg.sp - 1 in
  set m Reg.sp sp;
  store m sp v

let pop m =
  let sp = reg m Reg.sp in
  let v = load m sp in
  set m Reg.sp (sp + 1);
  v

let rec exec m insn =
  match insn with
  | Insn.Binop (op, rd, rs, rt) ->
    set m rd (alu op (reg m rs) (reg m rt));
    next m
  | Insn.Binopi (op, rd, rs, imm) ->
    set m rd (alu op (reg m rs) imm);
    next m
  | Insn.Cmp (c, rd, rs, rt) ->
    set m rd (if cmp c (reg m rs) (reg m rt) then 1 else 0);
    next m
  | Insn.Cmpi (c, rd, rs, imm) ->
    set m rd (if cmp c (reg m rs) imm then 1 else 0);
    next m
  | Insn.Li (rd, imm) ->
    set m rd imm;
    next m
  | Insn.Mov (rd, rs) ->
    set m rd (reg m rs);
    next m
  | Insn.Load (rd, base, off) ->
    set m rd (load m (reg m base + off));
    next m
  | Insn.Store (rs, base, off) -> written m (store m (reg m base + off) (reg m rs))
  | Insn.Br (c, rs, rt, target) ->
    let pc = m.pc in
    let taken = cmp c (reg m rs) (reg m rt) in
    m.pc <- (if taken then target else pc + 1);
    Branch (pc, taken, target)
  | Insn.Jmp target ->
    m.pc <- target;
    Next
  | Insn.Call target ->
    if push m (m.pc + 1) then begin
      m.pc <- target;
      Next
    end
    else Stop Overflow
  | Insn.Ret ->
    m.pc <- pop m;
    Next
  | Insn.Push rs -> written m (push m (reg m rs))
  | Insn.Pop rd ->
    set m rd (pop m);
    next m
  | Insn.Syscall sys -> syscall m sys
  | Insn.Checkz (rs, site) ->
    if reg m rs = 0 then file m site;
    next m
  | Insn.Watch (lo, hi, site) ->
    m.ranges <- { lo = reg m lo; hi = reg m hi; rsite = site } :: m.ranges;
    next m
  | Insn.Unwatch (lo, hi) ->
    let lo = reg m lo and hi = reg m hi in
    m.ranges <- List.filter (fun r -> not (r.lo >= lo && r.hi <= hi)) m.ranges;
    next m
  | Insn.Pred inner -> if m.pred then exec m inner else next m
  | Insn.Clearpred ->
    m.pred <- false;
    next m
  | Insn.Halt -> Stop Halted
  | Insn.Nop -> next m

(* One instruction. A fault leaves the pc on the faulting instruction; the
   instruction still counts, unless the pc itself is bad. *)
let step m =
  let pc = m.pc in
  if pc < 0 || pc >= Array.length m.code then Stop (Faulted (Bad_pc pc))
  else begin
    m.insns <- m.insns + 1;
    m.index <- m.index + 1;
    try exec m m.code.(pc) with Fault f -> Stop (Faulted f)
  end

(* Run until the path stops or has retired [limit] instructions. *)
let rec run m ~limit =
  if m.insns >= limit then Limit
  else match step m with Next | Branch _ -> run m ~limit | Stop s -> s

(* Run the taken path to its next conditional branch. *)
let rec to_branch m ~limit =
  if m.insns >= limit then Error Limit
  else
    match step m with
    | Next -> to_branch m ~limit
    | Branch (pc, taken, target) -> Ok (pc, taken, target)
    | Stop s -> Error s

type nt_result = {
  nt_stop : stop;
  nt_insns : int;
  nt_words : (int * int) list;  (* the words the path wrote, sorted *)
}

(* One NT-Path from the current taken-path state: registers copied, the pc
   on [entry], the predicate set iff the stubs' fixes run. It reads through
   its own writes and leaves committed memory, the registers, the pc and
   the watched ranges as it found them; its reports stay filed. *)
let nt_path m ~entry ~fixing ~limit ~line_limit ~words_per_line =
  let regs = m.regs and pc = m.pc and pred = m.pred and ranges = m.ranges in
  let insns = m.insns in
  let o =
    {
      words = Hashtbl.create 16;
      lines = Hashtbl.create 16;
      line_limit;
      words_per_line;
    }
  in
  m.regs <- Array.copy regs;
  m.pc <- entry;
  m.pred <- fixing;
  m.overlay <- Some o;
  m.insns <- 0;
  let stop = run m ~limit in
  let result =
    {
      nt_stop = stop;
      nt_insns = m.insns;
      nt_words =
        List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) o.words []);
    }
  in
  m.regs <- regs;
  m.pc <- pc;
  m.pred <- pred;
  m.ranges <- ranges;
  m.overlay <- None;
  m.insns <- insns;
  result

let output m = Buffer.contents m.out
let reports m = List.rev m.reports
let memory m = m.mem
let regs m = m.regs
let insns m = m.insns

let fault_name = function
  | Null_access -> "null access"
  | Out_of_range a -> Printf.sprintf "out-of-range access at %d" a
  | Div_by_zero -> "division by zero"
  | Bad_pc pc -> Printf.sprintf "bad pc %d" pc

let stop_name = function
  | Halted -> "halted"
  | Exited n -> Printf.sprintf "exited(%d)" n
  | Faulted f -> "faulted: " ^ fault_name f
  | Limit -> "limit"
  | Unsafe sys -> "unsafe " ^ Insn.sys_name sys
  | Overflow -> "overflow"
