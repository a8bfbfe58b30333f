(* Instruction selection: typed AST to label-form assembly ([Asmprog.t]),
   including the two compiler passes the paper requires:

   - the *variable-fixing pass* (Section 4.4): every conditional branch is
     laid out with a small stub at the head of each edge holding predicated
     instructions that repair the branch's condition variable to a boundary
     value consistent with that edge — executed only at the entrance of an
     NT-Path (predicate register set by the spawn), NOPs otherwise; null
     pointers are redirected to per-type blank structures;

   - *detector instrumentation*: CCured-style bounds/null checks, iWatcher
     red-zone watchpoint registration, or assertion lowering, all emitted
     branch-free (via [Checkz]) so that checking code never perturbs branch
     statistics and PathExpander never spawns NT-Paths inside a checker.

   At [O0] the emission is instruction-for-instruction identical to the
   historical single-pass code generator (the determinism anchor). [O1] and
   above additionally select immediate operand forms ([Binopi]/[Cmpi]
   instead of a [Li] plus the register form), fold literal indices into
   addressing, and read register-allocated variables in place instead of
   copying them into expression temporaries. *)

exception Error of string * int

let error line fmt = Printf.ksprintf (fun s -> raise (Error (s, line))) fmt

type detector = No_detector | Ccured | Iwatcher | Assertions

let detector_name = function
  | No_detector -> "none"
  | Ccured -> "ccured"
  | Iwatcher -> "iwatcher"
  | Assertions -> "assertions"

type options = { detector : detector; fixing : bool }

let default_options = { detector = No_detector; fixing = true }

(* Dedicated scratch register for predicated fix sequences, never handed to
   expression temporaries so fixes cannot clobber live values. *)
let fix_scratch = Reg.tmp 17

let expr_tmps = 17

type state = {
  opts : options;
  lv : Opt.level;
  tp : Tast.tprogram;
  code : Insn.t Vec.t;
  labels : int Vec.t;  (* label id -> pc, -1 until placed *)
  fn_labels : (string, int) Hashtbl.t;
  mutable sites : Site.t list;
  mutable site_count : int;
  mutable user_branches : int list;
  mutable source_lines : (int * int) list;
  mutable functions : (string * int) list;
  mutable user_ranges : (int * int) list;
  mutable fix_atoms : (int * Fix_atom.t) list;
  mutable tmp_next : int;
  mutable tmp_limit : int;
      (* temporaries [tmp_limit..expr_tmps) are register-allocated in the
         current function and must not be handed out as expression temps *)
  mutable tmp_high : int;  (* high-water mark of [tmp_next], per function *)
  highwater : (string * int) list ref;
  mutable cur_promoted : Reg.t list;
      (* register-allocated variables of the current function (ascending),
         caller-saved around calls like live expression temporaries *)
  mutable cur_runtime : bool;
  mutable branch_free : bool;
  mutable break_labels : int list;
  mutable continue_labels : int list;
  mutable ret_label : int;
  mutable last_line : int;
}

let create_state opts lv tp =
  {
    opts;
    lv;
    tp;
    code = Vec.create ~dummy:Insn.Nop;
    labels = Vec.create ~dummy:(-1);
    fn_labels = Hashtbl.create 64;
    sites = [];
    site_count = 0;
    user_branches = [];
    source_lines = [];
    functions = [];
    user_ranges = [];
    fix_atoms = [];
    tmp_next = 0;
    tmp_limit = expr_tmps;
    tmp_high = 0;
    highwater = ref [];
    cur_promoted = [];
    cur_runtime = false;
    branch_free = false;
    break_labels = [];
    continue_labels = [];
    ret_label = -1;
    last_line = -1;
  }

let opt1 st = Opt.at_least st.lv Opt.O1

let pc st = Vec.length st.code

let emit st insn = Vec.push st.code insn

(* Label ids are handed out densely from 0, so they index [labels]. *)
let new_label st =
  let l = Vec.length st.labels in
  Vec.push st.labels (-1);
  l

let place_label st l =
  if Vec.get st.labels l >= 0 then invalid_arg "Instr_select: label placed twice";
  Vec.set st.labels l (pc st)

(* Control targets are emitted as [-(label + 1)] and patched by [Lower]. *)
let lref l = -(l + 1)

let note_line st line =
  if line <> st.last_line && line > 0 then begin
    st.last_line <- line;
    st.source_lines <- (pc st, line) :: st.source_lines
  end

let new_site st kind line descr =
  let id = st.site_count in
  st.site_count <- id + 1;
  st.sites <- { Site.id; line; kind; descr } :: st.sites;
  id

let alloc_tmp st =
  if st.tmp_next >= st.tmp_limit then
    error st.last_line "expression too deep (out of temporaries)";
  let t = Reg.tmp st.tmp_next in
  st.tmp_next <- st.tmp_next + 1;
  if st.tmp_next > st.tmp_high then st.tmp_high <- st.tmp_next;
  t

let free_tmp st r =
  if st.tmp_next = 0 || r <> Reg.tmp (st.tmp_next - 1) then
    invalid_arg "Instr_select: temporaries must be freed in LIFO order";
  st.tmp_next <- st.tmp_next - 1

let live_tmps st = List.init st.tmp_next Reg.tmp

(* --- storage places ------------------------------------------------------ *)

type place =
  | Pframe of int  (* fp + offset *)
  | Pglobal of int  (* absolute address *)
  | Preg of Reg.t  (* address held in a temporary (owned by caller) *)
  | Pvreg of Reg.t  (* register-allocated scalar: the value IS the register *)

let storage_place vr =
  match vr.Tast.vr_storage with
  | Tast.Local off -> Pframe off
  | Tast.Global addr -> Pglobal addr
  | Tast.Reg r -> Pvreg r

let load_place st place ~dst =
  match place with
  | Pframe off -> emit st (Insn.Load (dst, Reg.fp, off))
  | Pglobal addr -> emit st (Insn.Load (dst, Reg.zero, addr))
  | Preg r -> emit st (Insn.Load (dst, r, 0))
  | Pvreg r -> emit st (Insn.Mov (dst, r))

let store_place st place ~src =
  match place with
  | Pframe off -> emit st (Insn.Store (src, Reg.fp, off))
  | Pglobal addr -> emit st (Insn.Store (src, Reg.zero, addr))
  | Preg r -> emit st (Insn.Store (src, r, 0))
  | Pvreg r -> emit st (Insn.Mov (r, src))

(* Materialise the address a place denotes into [dst]. *)
let place_address st place ~dst =
  match place with
  | Pframe off -> emit st (Insn.Binopi (Insn.Add, dst, Reg.fp, off))
  | Pglobal addr -> emit st (Insn.Li (dst, addr))
  | Preg r -> if r <> dst then emit st (Insn.Mov (dst, r))
  | Pvreg _ ->
    (* register allocation never promotes address-taken variables *)
    assert false

let shift_place st place offset =
  if offset = 0 then place
  else
    match place with
    | Pframe off -> Pframe (off + offset)
    | Pglobal addr -> Pglobal (addr + offset)
    | Preg r ->
      emit st (Insn.Binopi (Insn.Add, r, r, offset));
      Preg r
    | Pvreg _ -> assert false  (* scalars have no interior *)

(* --- operators ----------------------------------------------------------- *)

let insn_binop_of_ast = function
  | Ast.Add -> Some Insn.Add
  | Ast.Sub -> Some Insn.Sub
  | Ast.Mul -> Some Insn.Mul
  | Ast.Div -> Some Insn.Div
  | Ast.Mod -> Some Insn.Mod
  | Ast.Band -> Some Insn.And
  | Ast.Bor -> Some Insn.Or
  | Ast.Bxor -> Some Insn.Xor
  | Ast.Shl -> Some Insn.Shl
  | Ast.Shr -> Some Insn.Shr
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Land | Ast.Lor ->
    None

let insn_cmp_of_ast = function
  | Ast.Eq -> Some Insn.Eq
  | Ast.Ne -> Some Insn.Ne
  | Ast.Lt -> Some Insn.Lt
  | Ast.Le -> Some Insn.Le
  | Ast.Gt -> Some Insn.Gt
  | Ast.Ge -> Some Insn.Ge
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
  | Ast.Bxor | Ast.Shl | Ast.Shr | Ast.Land | Ast.Lor ->
    None

let commutes = function
  | Insn.Add | Insn.Mul | Insn.And | Insn.Or | Insn.Xor -> true
  | Insn.Sub | Insn.Div | Insn.Mod | Insn.Shl | Insn.Shr -> false

(* c such that [a cmp b <=> b c a]. *)
let cmp_mirror = function
  | Insn.Eq -> Insn.Eq
  | Insn.Ne -> Insn.Ne
  | Insn.Lt -> Insn.Gt
  | Insn.Le -> Insn.Ge
  | Insn.Gt -> Insn.Lt
  | Insn.Ge -> Insn.Le

let imm_of (e : Tast.texpr) =
  match e.Tast.tdesc with Tast.Tint_lit n -> Some n | _ -> None

(* --- consistency fixing -------------------------------------------------- *)

type fix_atom =
  | Fa_none
  | Fa_var_const of Tast.var_ref * Insn.cmp * int
  | Fa_var_var of Tast.var_ref * Insn.cmp * Tast.var_ref

let blank_for st ty =
  let lookup name =
    match List.assoc_opt name st.tp.Tast.tp_blank_addrs with
    | Some addr -> addr
    | None -> List.assoc "generic" st.tp.Tast.tp_blank_addrs
  in
  match ty with
  | Ast.Tptr (Ast.Tstruct name) -> lookup name
  | Ast.Tptr _ | Ast.Tint | Ast.Tarray _ | Ast.Tstruct _ | Ast.Tvoid ->
    List.assoc "generic" st.tp.Tast.tp_blank_addrs

(* Boundary value satisfying [v cmp k]. *)
let boundary_value cmp k =
  match cmp with
  | Insn.Eq -> k
  | Insn.Ne -> k + 1
  | Insn.Lt -> k - 1
  | Insn.Le -> k
  | Insn.Gt -> k + 1
  | Insn.Ge -> k

let is_pointer = function Ast.Tptr _ -> true | _ -> false

let pred_store_home st vr ~src =
  match vr.Tast.vr_storage with
  | Tast.Local off -> emit st (Insn.Pred (Insn.Store (src, Reg.fp, off)))
  | Tast.Global addr -> emit st (Insn.Pred (Insn.Store (src, Reg.zero, addr)))
  | Tast.Reg r -> emit st (Insn.Pred (Insn.Mov (r, src)))

let pred_load_home st vr ~dst =
  match vr.Tast.vr_storage with
  | Tast.Local off -> emit st (Insn.Pred (Insn.Load (dst, Reg.fp, off)))
  | Tast.Global addr -> emit st (Insn.Pred (Insn.Load (dst, Reg.zero, addr)))
  | Tast.Reg r -> emit st (Insn.Pred (Insn.Mov (dst, r)))

(* Emit the predicated fix block establishing [atom] (already oriented for
   this edge), then clear the predicate register. A register-allocated
   condition variable is fixed in its register — the NT-Path context is a
   copy of the spawning core's register file, so the repair is just as
   private to the path as a sandboxed store. *)
let emit_fix_block st atom =
  if st.opts.fixing then begin
    (match atom with
     | Fa_none -> ()
     | Fa_var_const (vr, cmp, k) ->
       let raw = boundary_value cmp k in
       let value =
         if is_pointer vr.Tast.vr_ty && raw <> 0 then blank_for st vr.Tast.vr_ty
         else raw
       in
       (match vr.Tast.vr_storage with
        | Tast.Reg r -> emit st (Insn.Pred (Insn.Li (r, value)))
        | Tast.Local _ | Tast.Global _ ->
          emit st (Insn.Pred (Insn.Li (fix_scratch, value)));
          pred_store_home st vr ~src:fix_scratch)
     | Fa_var_var (x, cmp, y) ->
       let delta = boundary_value cmp 0 in
       pred_load_home st y ~dst:fix_scratch;
       if delta <> 0 then
         emit st (Insn.Pred (Insn.Binopi (Insn.Add, fix_scratch, fix_scratch, delta)));
       pred_store_home st x ~src:fix_scratch);
    emit st Insn.Clearpred
  end

let negate_atom = function
  | Fa_none -> Fa_none
  | Fa_var_const (v, c, k) -> Fa_var_const (v, Insn.negate_cmp c, k)
  | Fa_var_var (x, c, y) -> Fa_var_var (x, Insn.negate_cmp c, y)

(* Classify a comparison for fixability: prefer repairing the left operand. *)
let fix_atom_of_cmp a cmp b =
  match (Tast.fixable_var a, Tast.fixable_var b) with
  | Some va, _ ->
    (match b.Tast.tdesc with
     | Tast.Tint_lit k -> Fa_var_const (va, cmp, k)
     | _ ->
       (match Tast.fixable_var b with
        | Some vb -> Fa_var_var (va, cmp, vb)
        | None -> Fa_none))
  | None, Some vb ->
    (match a.Tast.tdesc with
     | Tast.Tint_lit k -> Fa_var_const (vb, cmp_mirror cmp, k)
     | _ -> Fa_none)
  | None, None -> Fa_none

let home_of_storage = function
  | Tast.Local off -> Some (Fix_atom.Hframe off)
  | Tast.Global addr -> Some (Fix_atom.Hglobal addr)
  | Tast.Reg _ -> None

(* The side-table form of an internal fix atom, for the profiled-fixing
   extension (the stub instructions remain the architectural mechanism).
   Register-allocated variables have no memory home the profiled override
   could write, so their atoms stay stub-only and are not exported. *)
let export_atom = function
  | Fa_none -> None
  | Fa_var_const (vr, cmp, k) ->
    (match home_of_storage vr.Tast.vr_storage with
     | Some var ->
       Some
         {
           Fix_atom.var;
           pointer = is_pointer vr.Tast.vr_ty;
           cmp;
           rhs = Fix_atom.Const k;
         }
     | None -> None)
  | Fa_var_var (x, cmp, y) ->
    (match (home_of_storage x.Tast.vr_storage, home_of_storage y.Tast.vr_storage)
     with
     | Some var, Some home_y ->
       Some
         {
           Fix_atom.var;
           pointer = is_pointer x.Tast.vr_ty;
           cmp;
           rhs = Fix_atom.Var home_y;
         }
     | _ -> None)

(* --- expression compilation ---------------------------------------------- *)

let rec compile_expr st (e : Tast.texpr) : Reg.t =
  note_line st e.Tast.eline;
  match e.Tast.tdesc with
  | Tast.Tint_lit n ->
    let t = alloc_tmp st in
    emit st (Insn.Li (t, n));
    t
  | Tast.Tstr_addr addr ->
    let t = alloc_tmp st in
    emit st (Insn.Li (t, addr));
    t
  | Tast.Tvar vr ->
    let t = alloc_tmp st in
    (match vr.Tast.vr_ty with
     | Ast.Tarray _ | Ast.Tstruct _ -> place_address st (storage_place vr) ~dst:t
     | Ast.Tint | Ast.Tptr _ | Ast.Tvoid -> load_place st (storage_place vr) ~dst:t);
    t
  | Tast.Tunop (op, e1) ->
    let v = compile_expr st e1 in
    (match op with
     | Ast.Neg -> emit st (Insn.Binop (Insn.Sub, v, Reg.zero, v))
     | Ast.Bnot -> emit st (Insn.Binopi (Insn.Xor, v, v, -1))
     | Ast.Lnot -> emit st (Insn.Cmpi (Insn.Eq, v, v, 0)));
    v
  | Tast.Tbinop ((Ast.Land | Ast.Lor) as op, a, b) ->
    if st.branch_free then begin
      let va = compile_expr st a in
      emit st (Insn.Cmpi (Insn.Ne, va, va, 0));
      let vb = compile_expr st b in
      emit st (Insn.Cmpi (Insn.Ne, vb, vb, 0));
      let insn_op = if op = Ast.Land then Insn.And else Insn.Or in
      emit st (Insn.Binop (insn_op, va, va, vb));
      free_tmp st vb;
      va
    end
    else compile_value_via_cond st e
  | Tast.Tbinop (op, a, b) when opt1 st ->
    (* O1+: prefer immediate forms, read register-allocated operands in
       place. The result register is always a fresh owned temporary. *)
    (match insn_cmp_of_ast op with
     | Some cmp ->
       (match (imm_of b, imm_of a) with
        | Some k, _ ->
          let va = compile_expr st a in
          emit st (Insn.Cmpi (cmp, va, va, k));
          va
        | None, Some k ->
          let vb = compile_expr st b in
          emit st (Insn.Cmpi (cmp_mirror cmp, vb, vb, k));
          vb
        | None, None ->
          let va = compile_expr st a in
          let vb, ob = compile_operand st b in
          emit st (Insn.Cmp (cmp, va, va, vb));
          free_operand st (vb, ob);
          va)
     | None ->
       let insn_op =
         match insn_binop_of_ast op with Some o -> o | None -> assert false
       in
       (match (imm_of b, imm_of a) with
        | Some k, _ ->
          let va = compile_expr st a in
          emit st (Insn.Binopi (insn_op, va, va, k));
          va
        | None, Some k when commutes insn_op ->
          let vb = compile_expr st b in
          emit st (Insn.Binopi (insn_op, vb, vb, k));
          vb
        | None, _ ->
          let va = compile_expr st a in
          let vb, ob = compile_operand st b in
          emit st (Insn.Binop (insn_op, va, va, vb));
          free_operand st (vb, ob);
          va))
  | Tast.Tbinop (op, a, b) ->
    (match insn_cmp_of_ast op with
     | Some cmp ->
       let va = compile_expr st a in
       let vb = compile_expr st b in
       emit st (Insn.Cmp (cmp, va, va, vb));
       free_tmp st vb;
       va
     | None ->
       (match insn_binop_of_ast op with
        | Some insn_op ->
          let va = compile_expr st a in
          let vb = compile_expr st b in
          emit st (Insn.Binop (insn_op, va, va, vb));
          free_tmp st vb;
          va
        | None -> assert false))
  | Tast.Tptr_add (p, i, scale) ->
    (match imm_of i with
     | Some k when opt1 st ->
       let vp = compile_expr st p in
       if k * scale <> 0 then emit st (Insn.Binopi (Insn.Add, vp, vp, k * scale));
       vp
     | _ ->
       let vp = compile_expr st p in
       let vi = compile_expr st i in
       if scale <> 1 then emit st (Insn.Binopi (Insn.Mul, vi, vi, scale));
       emit st (Insn.Binop (Insn.Add, vp, vp, vi));
       free_tmp st vi;
       vp)
  | Tast.Tptr_diff (p, q, scale) ->
    let vp = compile_expr st p in
    let vq = compile_expr st q in
    emit st (Insn.Binop (Insn.Sub, vp, vp, vq));
    if scale <> 1 then emit st (Insn.Binopi (Insn.Div, vp, vp, scale));
    free_tmp st vq;
    vp
  | Tast.Tassign (lhs, rhs) ->
    let v = compile_expr st rhs in
    let place = compile_lvalue st lhs in
    store_place st place ~src:v;
    (match place with
     | Preg r -> free_tmp st r
     | Pframe _ | Pglobal _ | Pvreg _ -> ());
    v
  | Tast.Tcall_fn (name, args) -> compile_call st name args
  | Tast.Tcall_builtin (builtin, args) -> compile_builtin st e.Tast.eline builtin args
  | Tast.Tindex _ | Tast.Tderef _ | Tast.Tfield _ | Tast.Tarrow _ ->
    let place = compile_lvalue st e in
    (match e.Tast.ety with
     | Ast.Tarray _ | Ast.Tstruct _ ->
       (* rvalue of an aggregate is its address *)
       (match place with
        | Preg r -> r
        | Pframe _ | Pglobal _ | Pvreg _ ->
          let t = alloc_tmp st in
          place_address st place ~dst:t;
          t)
     | Ast.Tint | Ast.Tptr _ | Ast.Tvoid ->
       (match place with
        | Preg r ->
          emit st (Insn.Load (r, r, 0));
          r
        | Pframe _ | Pglobal _ | Pvreg _ ->
          let t = alloc_tmp st in
          load_place st place ~dst:t;
          t))
  | Tast.Taddr lv ->
    let place = compile_lvalue st lv in
    (match place with
     | Preg r -> r
     | Pframe _ | Pglobal _ | Pvreg _ ->
       let t = alloc_tmp st in
       place_address st place ~dst:t;
       t)
  | Tast.Tcond _ ->
    if st.branch_free then
      error e.Tast.eline "'?:' is not allowed inside assert conditions";
    compile_value_via_cond st e

(* O1+ operand evaluation that can *borrow* a register instead of owning a
   fresh temporary: a register-allocated scalar is read in place, the
   literal zero is the zero register. The boolean is [owned]; borrowed
   registers must never be written or freed.

   A borrow reads the register at *use* time, not eval time, so it is only
   legal when nothing evaluated between here and the use can write that
   register. Calls are fine (promoted registers are caller-saved around
   every call and promoted variables are never address-taken); the one
   hazard is a direct assignment to the same variable in a sibling
   expression evaluated after the borrow — callers with such a sibling must
   use [compile_operand_seq]. *)
and compile_operand st (e : Tast.texpr) : Reg.t * bool =
  if not (opt1 st) then (compile_expr st e, true)
  else
    match e.Tast.tdesc with
    | Tast.Tint_lit 0 -> (Reg.zero, false)
    | Tast.Tvar { Tast.vr_storage = Tast.Reg r; vr_ty = Ast.Tint | Ast.Tptr _; _ }
      ->
      (r, false)
    | _ -> (compile_expr st e, true)

(* [compile_operand_seq st e ~rest] is [compile_operand], downgraded to an
   owned copy when any expression in [rest] (evaluated after [e], before the
   use) assigns the register [e] would borrow — preserving O0's
   eval-order semantics for cases like [x < (x = 5)]. *)
and compile_operand_seq st (e : Tast.texpr) ~rest : Reg.t * bool =
  let r, owned = compile_operand_plan st e in
  if owned then (compile_expr st e, true)
  else if List.exists (assigns_reg r) rest then (compile_expr st e, true)
  else (r, owned)

(* The borrow decision of [compile_operand] without emitting anything. *)
and compile_operand_plan st (e : Tast.texpr) : Reg.t * bool =
  if not (opt1 st) then (Reg.zero, true)
  else
    match e.Tast.tdesc with
    | Tast.Tint_lit 0 -> (Reg.zero, false)
    | Tast.Tvar { Tast.vr_storage = Tast.Reg r; vr_ty = Ast.Tint | Ast.Tptr _; _ }
      ->
      (r, false)
    | _ -> (Reg.zero, true)

and assigns_reg r (e : Tast.texpr) =
  match e.Tast.tdesc with
  | Tast.Tint_lit _ | Tast.Tstr_addr _ | Tast.Tvar _ -> false
  | Tast.Tunop (_, a) | Tast.Tderef a | Tast.Taddr a | Tast.Tfield (a, _)
  | Tast.Tarrow (a, _) ->
    assigns_reg r a
  | Tast.Tbinop (_, a, b)
  | Tast.Tptr_add (a, b, _)
  | Tast.Tptr_diff (a, b, _)
  | Tast.Tindex (a, b, _) ->
    assigns_reg r a || assigns_reg r b
  | Tast.Tassign (lhs, rhs) ->
    (match lhs.Tast.tdesc with
     | Tast.Tvar { Tast.vr_storage = Tast.Reg r'; _ } when r' = r -> true
     | _ -> assigns_reg r lhs || assigns_reg r rhs)
  | Tast.Tcall_fn (_, args) | Tast.Tcall_builtin (_, args) ->
    List.exists (assigns_reg r) args
  | Tast.Tcond (a, b, c) -> assigns_reg r a || assigns_reg r b || assigns_reg r c

and free_operand st (r, owned) = if owned then free_tmp st r

(* Materialise a boolean-producing expression into 0/1 using the branch/stub
   machinery (short-circuit &&/|| and ?: in value position). *)
and compile_value_via_cond st (e : Tast.texpr) : Reg.t =
  let res = alloc_tmp st in
  match e.Tast.tdesc with
  | Tast.Tcond (c, a, b) ->
    let lt = new_label st and lf = new_label st and lend = new_label st in
    compile_cond st c ~tl:lt ~fl:lf;
    place_label st lt;
    let va, oa = compile_operand st a in
    emit st (Insn.Mov (res, va));
    free_operand st (va, oa);
    emit st (Insn.Jmp (lref lend));
    place_label st lf;
    let vb, ob = compile_operand st b in
    emit st (Insn.Mov (res, vb));
    free_operand st (vb, ob);
    place_label st lend;
    res
  | _ ->
    let lt = new_label st and lf = new_label st and lend = new_label st in
    compile_cond st e ~tl:lt ~fl:lf;
    place_label st lt;
    emit st (Insn.Li (res, 1));
    emit st (Insn.Jmp (lref lend));
    place_label st lf;
    emit st (Insn.Li (res, 0));
    place_label st lend;
    res

(* Compute the place an lvalue denotes, inserting CCured checks when that
   detector is selected. *)
and compile_lvalue st (e : Tast.texpr) : place =
  note_line st e.Tast.eline;
  match e.Tast.tdesc with
  | Tast.Tvar vr -> storage_place vr
  | Tast.Tindex (base, idx, elt_size) -> compile_index st e.Tast.eline base idx elt_size
  | Tast.Tderef p ->
    let v = compile_expr st p in
    emit_null_check st e.Tast.eline p v;
    Preg v
  | Tast.Tfield (base, f) ->
    let place = compile_lvalue st base in
    shift_place st place f.Tast.f_offset
  | Tast.Tarrow (p, f) ->
    let v = compile_expr st p in
    emit_null_check st e.Tast.eline p v;
    if f.Tast.f_offset <> 0 then
      emit st (Insn.Binopi (Insn.Add, v, v, f.Tast.f_offset));
    Preg v
  | Tast.Tint_lit _ | Tast.Tstr_addr _ | Tast.Tunop _ | Tast.Tbinop _
  | Tast.Tptr_add _ | Tast.Tptr_diff _ | Tast.Tassign _ | Tast.Tcall_fn _
  | Tast.Tcall_builtin _ | Tast.Taddr _ | Tast.Tcond _ ->
    error e.Tast.eline "expression is not an lvalue"

and compile_index st line base idx elt_size =
  let describe () =
    match base.Tast.tdesc with
    | Tast.Tvar vr -> Printf.sprintf "index into '%s'" vr.Tast.vr_name
    | _ -> "index"
  in
  match base.Tast.ety with
  | Ast.Tarray (_, n) ->
    (match imm_of idx with
     | Some k when opt1 st ->
       (* Literal index into a static array: fold the displacement into the
          place. The CCured verdict is known at compile time but the check
          must still execute (and report) exactly as the dynamic form
          would. *)
       let base_place = compile_lvalue st base in
       if st.opts.detector = Ccured then begin
         let ok = alloc_tmp st in
         emit st (Insn.Li (ok, if k >= 0 && k < n then 1 else 0));
         let site =
           new_site st Site.Bounds_check line
             (Printf.sprintf "%s (bound %d)" (describe ()) n)
         in
         emit st (Insn.Checkz (ok, site));
         free_tmp st ok
       end;
       shift_place st base_place (k * elt_size)
     | _ ->
       (* Static array: address of the array plus scaled index; CCured knows
          the bound at the access site. *)
       let base_place = compile_lvalue_or_array_address st base in
       let vi = compile_expr st idx in
       if st.opts.detector = Ccured then begin
         let ok = alloc_tmp st in
         let ok2 = alloc_tmp st in
         emit st (Insn.Cmpi (Insn.Ge, ok, vi, 0));
         emit st (Insn.Cmpi (Insn.Lt, ok2, vi, n));
         emit st (Insn.Binop (Insn.And, ok, ok, ok2));
         let site =
           new_site st Site.Bounds_check line
             (Printf.sprintf "%s (bound %d)" (describe ()) n)
         in
         emit st (Insn.Checkz (ok, site));
         free_tmp st ok2;
         free_tmp st ok
       end;
       if elt_size <> 1 then emit st (Insn.Binopi (Insn.Mul, vi, vi, elt_size));
       emit st (Insn.Binop (Insn.Add, base_place, base_place, vi));
       free_tmp st vi;
       Preg base_place)
  | _ ->
    (* Pointer base: null check only (bounds unknown without fat pointers;
       iWatcher covers these via red zones). *)
    let vp = compile_expr st base in
    emit_null_check st line base vp;
    (match imm_of idx with
     | Some k when opt1 st ->
       if k * elt_size <> 0 then
         emit st (Insn.Binopi (Insn.Add, vp, vp, k * elt_size));
       Preg vp
     | _ ->
       let vi = compile_expr st idx in
       if elt_size <> 1 then emit st (Insn.Binopi (Insn.Mul, vi, vi, elt_size));
       emit st (Insn.Binop (Insn.Add, vp, vp, vi));
       free_tmp st vi;
       Preg vp)

(* Address of an array-typed lvalue, in a fresh temp. *)
and compile_lvalue_or_array_address st (e : Tast.texpr) : Reg.t =
  let place = compile_lvalue st e in
  match place with
  | Preg r -> r
  | Pframe _ | Pglobal _ | Pvreg _ ->
    let t = alloc_tmp st in
    place_address st place ~dst:t;
    t

and emit_null_check st line src v =
  if st.opts.detector = Ccured then begin
    let descr =
      match src.Tast.tdesc with
      | Tast.Tvar vr -> Printf.sprintf "dereference of '%s'" vr.Tast.vr_name
      | _ -> "pointer dereference"
    in
    let ok = alloc_tmp st in
    emit st (Insn.Cmpi (Insn.Ne, ok, v, 0));
    let site = new_site st Site.Null_check line descr in
    emit st (Insn.Checkz (ok, site));
    free_tmp st ok
  end

and compile_call st name args =
  (* Temps live before the call are caller-saved around it, and so are the
     current function's register-allocated variables — the callee owns the
     whole temporary bank. *)
  let saved = live_tmps st @ st.cur_promoted in
  let rec eval_args = function
    | [] -> []
    | a :: rest ->
      let v = compile_operand_seq st a ~rest in
      v :: eval_args rest
  in
  let arg_regs = eval_args args in
  List.iter (fun r -> emit st (Insn.Push r)) saved;
  List.iteri (fun i (r, _) -> emit st (Insn.Mov (Reg.arg i, r))) arg_regs;
  let label =
    match Hashtbl.find_opt st.fn_labels name with
    | Some l -> l
    | None -> error st.last_line "unknown function '%s' at code generation" name
  in
  emit st (Insn.Call (lref label));
  List.rev arg_regs |> List.iter (fun vr -> free_operand st vr);
  List.rev saved |> List.iter (fun r -> emit st (Insn.Pop r));
  let res = alloc_tmp st in
  emit st (Insn.Mov (res, Reg.rv));
  res

and compile_builtin st line builtin args =
  match (builtin, args) with
  | Tast.B_putc, [ a ] ->
    let v, o = compile_operand st a in
    emit st (Insn.Mov (Reg.arg 0, v));
    emit st (Insn.Syscall Insn.Sys_putc);
    free_operand st (v, o);
    let res = alloc_tmp st in
    emit st (Insn.Li (res, 0));
    res
  | Tast.B_getc, [] ->
    emit st (Insn.Syscall Insn.Sys_getc);
    let res = alloc_tmp st in
    emit st (Insn.Mov (res, Reg.rv));
    res
  | Tast.B_print_int, [ a ] ->
    let v, o = compile_operand st a in
    emit st (Insn.Mov (Reg.arg 0, v));
    emit st (Insn.Syscall Insn.Sys_print_int);
    free_operand st (v, o);
    let res = alloc_tmp st in
    emit st (Insn.Li (res, 0));
    res
  | Tast.B_exit, [ a ] ->
    let v, o = compile_operand st a in
    emit st (Insn.Mov (Reg.arg 0, v));
    emit st (Insn.Syscall Insn.Sys_exit);
    free_operand st (v, o);
    let res = alloc_tmp st in
    emit st (Insn.Li (res, 0));
    res
  | Tast.B_watch_region, [ p; n ] | Tast.B_unwatch_region, [ p; n ] ->
    let unwatch = builtin = Tast.B_unwatch_region in
    if st.opts.detector = Iwatcher then begin
      let vp = compile_expr st p in
      let vn = compile_expr st n in
      emit st (Insn.Binop (Insn.Add, vn, vp, vn));
      if unwatch then emit st (Insn.Unwatch (vp, vn))
      else begin
        let site = new_site st Site.Watchpoint line "heap red zone" in
        emit st (Insn.Watch (vp, vn, site))
      end;
      free_tmp st vn;
      free_tmp st vp
    end;
    let res = alloc_tmp st in
    emit st (Insn.Li (res, 0));
    res
  | (Tast.B_putc | Tast.B_getc | Tast.B_print_int | Tast.B_exit
    | Tast.B_watch_region | Tast.B_unwatch_region), _ ->
    error line "builtin arity mismatch (should have been caught earlier)"

(* --- condition compilation with edge stubs -------------------------------- *)

(* Emit one conditional branch plus its two edge stubs. The branch-taken
   target is the true stub; the fallthrough is the false stub. An NT-Path
   spawned on the non-taken edge enters exactly at that edge's stub with the
   predicate register set, so the predicated fix block executes and repairs
   the condition variable, then [Clearpred] ends the fix region. *)
and emit_branch st cmp rs rt atom ~tl ~fl =
  let ltrue = new_label st in
  let br_pc = pc st in
  if not st.cur_runtime then st.user_branches <- br_pc :: st.user_branches;
  (match export_atom atom with
   | Some exported -> st.fix_atoms <- (br_pc, exported) :: st.fix_atoms
   | None -> ());
  emit st (Insn.Br (cmp, rs, rt, lref ltrue));
  (* false stub: the fallthrough edge, where [not cmp] holds *)
  emit_fix_block st (negate_atom atom);
  emit st (Insn.Jmp (lref fl));
  place_label st ltrue;
  emit_fix_block st atom;
  emit st (Insn.Jmp (lref tl))

and compile_cond st (e : Tast.texpr) ~tl ~fl =
  note_line st e.Tast.eline;
  match e.Tast.tdesc with
  | Tast.Tint_lit n -> emit st (Insn.Jmp (lref (if n <> 0 then tl else fl)))
  | Tast.Tunop (Ast.Lnot, e1) -> compile_cond st e1 ~tl:fl ~fl:tl
  | Tast.Tbinop (Ast.Land, a, b) ->
    let mid = new_label st in
    compile_cond st a ~tl:mid ~fl;
    place_label st mid;
    compile_cond st b ~tl ~fl
  | Tast.Tbinop (Ast.Lor, a, b) ->
    let mid = new_label st in
    compile_cond st a ~tl ~fl:mid;
    place_label st mid;
    compile_cond st b ~tl ~fl
  | Tast.Tbinop (op, a, b) when insn_cmp_of_ast op <> None ->
    let cmp = Option.get (insn_cmp_of_ast op) in
    let atom = fix_atom_of_cmp a cmp b in
    if opt1 st then begin
      let va, oa = compile_operand_seq st a ~rest:[ b ] in
      let vb, ob = compile_operand st b in
      emit_branch st cmp va vb atom ~tl ~fl;
      free_operand st (vb, ob);
      free_operand st (va, oa)
    end
    else begin
      let va = compile_expr st a in
      let vb = compile_expr st b in
      emit_branch st cmp va vb atom ~tl ~fl;
      free_tmp st vb;
      free_tmp st va
    end
  | _ ->
    let atom =
      match Tast.fixable_var e with
      | Some vr -> Fa_var_const (vr, Insn.Ne, 0)
      | None -> Fa_none
    in
    let v, o = compile_operand st e in
    emit_branch st Insn.Ne v Reg.zero atom ~tl ~fl;
    free_operand st (v, o)

(* --- statements ----------------------------------------------------------- *)

(* A statement-position expression: the value is discarded, which at O1+
   lets an assignment to a register-allocated variable compile straight
   into its register ([i = i + 1] becomes one [Binopi]). *)
let rec compile_expr_stmt st (e : Tast.texpr) =
  note_line st e.Tast.eline;
  match e.Tast.tdesc with
  | Tast.Tassign
      ( { Tast.tdesc = Tast.Tvar ({ Tast.vr_storage = Tast.Reg r; _ } as _vr); _ },
        rhs )
    when opt1 st ->
    compile_into st rhs ~dst:r
  | _ ->
    let v = compile_expr st e in
    free_tmp st v

(* Compile [rhs] directly into register [dst] (the home of a
   register-allocated variable). Reading [dst] inside [rhs] is fine: the
   write is the final emitted instruction. *)
and compile_into st (rhs : Tast.texpr) ~dst =
  note_line st rhs.Tast.eline;
  match rhs.Tast.tdesc with
  | Tast.Tint_lit n -> emit st (Insn.Li (dst, n))
  | Tast.Tvar { Tast.vr_storage = Tast.Reg r; vr_ty = Ast.Tint | Ast.Tptr _; _ }
    ->
    if r <> dst then emit st (Insn.Mov (dst, r))
  | Tast.Tbinop (op, a, b) when insn_binop_of_ast op <> None ->
    let insn_op = Option.get (insn_binop_of_ast op) in
    (match (imm_of b, imm_of a) with
     | Some k, Some j ->
       (* both literal: only div/mod-by-zero survives folding *)
       let va = alloc_tmp st in
       emit st (Insn.Li (va, j));
       emit st (Insn.Binopi (insn_op, dst, va, k));
       free_tmp st va
     | Some k, None ->
       let va, oa = compile_operand st a in
       emit st (Insn.Binopi (insn_op, dst, va, k));
       free_operand st (va, oa)
     | None, Some j when commutes insn_op ->
       let vb, ob = compile_operand st b in
       emit st (Insn.Binopi (insn_op, dst, vb, j));
       free_operand st (vb, ob)
     | _ ->
       let va, oa = compile_operand_seq st a ~rest:[ b ] in
       let vb, ob = compile_operand st b in
       emit st (Insn.Binop (insn_op, dst, va, vb));
       free_operand st (vb, ob);
       free_operand st (va, oa))
  | Tast.Tbinop (op, a, b) when insn_cmp_of_ast op <> None -> (
    let cmp = Option.get (insn_cmp_of_ast op) in
    match (imm_of b, imm_of a) with
    | Some k, None ->
      let va, oa = compile_operand st a in
      emit st (Insn.Cmpi (cmp, dst, va, k));
      free_operand st (va, oa)
    | None, Some k ->
      let vb, ob = compile_operand st b in
      emit st (Insn.Cmpi (cmp_mirror cmp, dst, vb, k));
      free_operand st (vb, ob)
    | _ ->
      let va, oa = compile_operand_seq st a ~rest:[ b ] in
      let vb, ob = compile_operand st b in
      emit st (Insn.Cmp (cmp, dst, va, vb));
      free_operand st (vb, ob);
      free_operand st (va, oa))
  | _ ->
    let v = compile_expr st rhs in
    emit st (Insn.Mov (dst, v));
    free_tmp st v

let rec compile_stmt st (s : Tast.tstmt) =
  note_line st s.Tast.tsline;
  match s.Tast.tsdesc with
  | Tast.TSexpr e -> compile_expr_stmt st e
  | Tast.TSif (c, then_s, else_s) ->
    let lt = new_label st and lf = new_label st and lend = new_label st in
    compile_cond st c ~tl:lt ~fl:lf;
    place_label st lt;
    List.iter (compile_stmt st) then_s;
    emit st (Insn.Jmp (lref lend));
    place_label st lf;
    List.iter (compile_stmt st) else_s;
    place_label st lend
  | Tast.TSwhile (c, body) ->
    let lcond = new_label st and lbody = new_label st and lend = new_label st in
    place_label st lcond;
    compile_cond st c ~tl:lbody ~fl:lend;
    place_label st lbody;
    st.break_labels <- lend :: st.break_labels;
    st.continue_labels <- lcond :: st.continue_labels;
    List.iter (compile_stmt st) body;
    st.break_labels <- List.tl st.break_labels;
    st.continue_labels <- List.tl st.continue_labels;
    emit st (Insn.Jmp (lref lcond));
    place_label st lend
  | Tast.TSfor (init, cond, step, body) ->
    (match init with
     | Some e -> compile_expr_stmt st e
     | None -> ());
    let lcond = new_label st
    and lbody = new_label st
    and lstep = new_label st
    and lend = new_label st in
    place_label st lcond;
    (match cond with
     | Some c -> compile_cond st c ~tl:lbody ~fl:lend
     | None -> emit st (Insn.Jmp (lref lbody)));
    place_label st lbody;
    st.break_labels <- lend :: st.break_labels;
    st.continue_labels <- lstep :: st.continue_labels;
    List.iter (compile_stmt st) body;
    st.break_labels <- List.tl st.break_labels;
    st.continue_labels <- List.tl st.continue_labels;
    place_label st lstep;
    (match step with
     | Some e -> compile_expr_stmt st e
     | None -> ());
    emit st (Insn.Jmp (lref lcond));
    place_label st lend
  | Tast.TSreturn None -> emit st (Insn.Jmp (lref st.ret_label))
  | Tast.TSreturn (Some e) ->
    let v, o = compile_operand st e in
    emit st (Insn.Mov (Reg.rv, v));
    free_operand st (v, o);
    emit st (Insn.Jmp (lref st.ret_label))
  | Tast.TSbreak ->
    (match st.break_labels with
     | l :: _ -> emit st (Insn.Jmp (lref l))
     | [] -> error s.Tast.tsline "'break' outside a loop")
  | Tast.TScontinue ->
    (match st.continue_labels with
     | l :: _ -> emit st (Insn.Jmp (lref l))
     | [] -> error s.Tast.tsline "'continue' outside a loop")
  | Tast.TSassert e ->
    if st.opts.detector = Assertions then begin
      st.branch_free <- true;
      let v = compile_expr st e in
      st.branch_free <- false;
      let site =
        new_site st Site.Assertion s.Tast.tsline
          (Printf.sprintf "assertion at line %d" s.Tast.tsline)
      in
      emit st (Insn.Checkz (v, site));
      free_tmp st v
    end
  | Tast.TSblock body -> List.iter (compile_stmt st) body

(* --- functions & program -------------------------------------------------- *)

let local_array_bounds (la : Tast.local_array) =
  match la.Tast.la_ref.Tast.vr_storage with
  | Tast.Local off -> (off, la.Tast.la_elems)
  | Tast.Global _ | Tast.Reg _ -> assert false

let emit_local_watches st (f : Tast.tfunc) ~unwatch =
  if st.opts.detector = Iwatcher then
    List.iter
      (fun la ->
        let off, elems = local_array_bounds la in
        let lo = alloc_tmp st in
        let hi = alloc_tmp st in
        emit st (Insn.Binopi (Insn.Add, lo, Reg.fp, off + elems));
        emit st
          (Insn.Binopi (Insn.Add, hi, Reg.fp, off + elems + Typecheck.redzone_words));
        if unwatch then emit st (Insn.Unwatch (lo, hi))
        else begin
          let site =
            new_site st Site.Watchpoint f.Tast.tf_line
              (Printf.sprintf "red zone of '%s' in %s"
                 la.Tast.la_ref.Tast.vr_name f.Tast.tf_name)
          in
          emit st (Insn.Watch (lo, hi, site))
        end;
        free_tmp st hi;
        free_tmp st lo)
      f.Tast.tf_local_arrays

(* The register-allocated variables of a function, by scanning for [Reg]
   storages (ascending register order for a deterministic save sequence).
   Also drives the temp-bank split: a promoted temporary is fenced off from
   [alloc_tmp] for the whole function. *)
let promoted_regs (f : Tast.tfunc) =
  let acc = ref [] in
  let note = function
    | { Tast.vr_storage = Tast.Reg r; _ } ->
      if not (List.mem r !acc) then acc := r :: !acc
    | _ -> ()
  in
  let rec expr (e : Tast.texpr) =
    match e.Tast.tdesc with
    | Tast.Tvar vr -> note vr
    | Tast.Tint_lit _ | Tast.Tstr_addr _ -> ()
    | Tast.Tunop (_, a) | Tast.Tderef a | Tast.Taddr a | Tast.Tfield (a, _)
    | Tast.Tarrow (a, _) ->
      expr a
    | Tast.Tbinop (_, a, b) | Tast.Tptr_add (a, b, _) | Tast.Tptr_diff (a, b, _)
    | Tast.Tassign (a, b) | Tast.Tindex (a, b, _) ->
      expr a;
      expr b
    | Tast.Tcall_fn (_, args) | Tast.Tcall_builtin (_, args) ->
      List.iter expr args
    | Tast.Tcond (a, b, c) ->
      expr a;
      expr b;
      expr c
  in
  let rec stmt (s : Tast.tstmt) =
    match s.Tast.tsdesc with
    | Tast.TSexpr e | Tast.TSassert e -> expr e
    | Tast.TSif (c, a, b) ->
      expr c;
      List.iter stmt a;
      List.iter stmt b
    | Tast.TSwhile (c, body) ->
      expr c;
      List.iter stmt body
    | Tast.TSfor (i, c, st_, body) ->
      Option.iter expr i;
      Option.iter expr c;
      Option.iter expr st_;
      List.iter stmt body
    | Tast.TSreturn e -> Option.iter expr e
    | Tast.TSbreak | Tast.TScontinue -> ()
    | Tast.TSblock body -> List.iter stmt body
  in
  List.iter note f.Tast.tf_params;
  List.iter stmt f.Tast.tf_body;
  List.sort compare !acc

let compile_func st (f : Tast.tfunc) =
  let label = Hashtbl.find st.fn_labels f.Tast.tf_name in
  place_label st label;
  st.functions <- (f.Tast.tf_name, pc st) :: st.functions;
  st.cur_runtime <- f.Tast.tf_is_runtime;
  st.cur_promoted <- promoted_regs f;
  st.tmp_limit <-
    List.fold_left
      (fun limit r ->
        let idx = r - Reg.tmp 0 in
        if idx >= 0 && idx < expr_tmps then min limit idx else limit)
      expr_tmps st.cur_promoted;
  st.tmp_high <- 0;
  st.ret_label <- new_label st;
  note_line st f.Tast.tf_line;
  emit st (Insn.Push Reg.fp);
  emit st (Insn.Mov (Reg.fp, Reg.sp));
  if f.Tast.tf_frame_words > 0 then
    emit st (Insn.Binopi (Insn.Sub, Reg.sp, Reg.sp, f.Tast.tf_frame_words));
  List.iteri
    (fun i vr ->
      match vr.Tast.vr_storage with
      | Tast.Local off -> emit st (Insn.Store (Reg.arg i, Reg.fp, off))
      | Tast.Reg r -> emit st (Insn.Mov (r, Reg.arg i))
      | Tast.Global _ -> assert false)
    f.Tast.tf_params;
  emit_local_watches st f ~unwatch:false;
  List.iter (compile_stmt st) f.Tast.tf_body;
  place_label st st.ret_label;
  emit_local_watches st f ~unwatch:true;
  emit st (Insn.Mov (Reg.sp, Reg.fp));
  emit st (Insn.Pop Reg.fp);
  emit st Insn.Ret;
  if not f.Tast.tf_is_runtime then begin
    let start_pc = List.assoc f.Tast.tf_name st.functions in
    st.user_ranges <- (start_pc, pc st) :: st.user_ranges
  end;
  st.highwater := (f.Tast.tf_name, st.tmp_high) :: !(st.highwater);
  st.cur_promoted <- [];
  st.tmp_limit <- expr_tmps;
  if st.tmp_next <> 0 then
    error f.Tast.tf_line "internal: temporaries leaked in '%s'" f.Tast.tf_name

let emit_entry_stub st =
  st.functions <- ("__start", pc st) :: st.functions;
  st.cur_runtime <- true;
  if st.opts.detector = Iwatcher then
    List.iter
      (fun ga ->
        match ga.Tast.ga_ref.Tast.vr_storage with
        | Tast.Global addr ->
          let lo = alloc_tmp st in
          let hi = alloc_tmp st in
          emit st (Insn.Li (lo, addr + ga.Tast.ga_elems));
          emit st (Insn.Li (hi, addr + ga.Tast.ga_elems + Typecheck.redzone_words));
          let site =
            new_site st Site.Watchpoint ga.Tast.ga_line
              (Printf.sprintf "red zone of global '%s'"
                 ga.Tast.ga_ref.Tast.vr_name)
          in
          emit st (Insn.Watch (lo, hi, site));
          free_tmp st hi;
          free_tmp st lo
        | Tast.Local _ | Tast.Reg _ -> assert false)
      st.tp.Tast.tp_global_arrays;
  let main_label = Hashtbl.find st.fn_labels "main" in
  emit st (Insn.Call (lref main_label));
  emit st Insn.Halt

let select_state ?(options = default_options) ?(level = Opt.O0) tp =
  let st = create_state options level tp in
  List.iter
    (fun f -> Hashtbl.replace st.fn_labels f.Tast.tf_name (new_label st))
    tp.Tast.tp_funcs;
  emit_entry_stub st;
  List.iter (compile_func st) tp.Tast.tp_funcs;
  st

(* Instruction selection to label-form assembly. *)
let select ?options ?level (tp : Tast.tprogram) : Asmprog.t =
  let st = select_state ?options ?level tp in
  {
    Asmprog.code = Vec.to_array st.code;
    labels = Vec.to_array st.labels;
    sites = Array.of_list (List.rev st.sites);
    user_branches = List.rev st.user_branches;
    functions = List.rev st.functions;
    user_ranges = List.rev st.user_ranges;
    fix_atoms = List.rev st.fix_atoms;
    source_lines =
      List.sort (fun (a, _) (b, _) -> compare a b) (List.rev st.source_lines);
  }

(* Per-function high-water mark of the expression-temporary stack, measured
   by a throwaway selection run. The register allocator uses this to learn
   which high temporaries a function never touches; promotion only ever
   *lowers* temp pressure (borrowed reads replace owned copies), so the
   probe is a sound upper bound for the final emission. *)
let probe_tmp_highwater ?options ?level tp =
  let st = select_state ?options ?level tp in
  !(st.highwater)
