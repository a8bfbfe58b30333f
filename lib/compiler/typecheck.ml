exception Error of string * int

let error line fmt = Printf.ksprintf (fun s -> raise (Error (s, line))) fmt

type struct_info = { s_fields : Tast.field_info list; s_size : int }

type fn_sig = { fs_ret : Ast.ty; fs_params : Ast.ty list; fs_runtime : bool }

(* Words of red zone allocated after every top-level array; iWatcher's
   overrun watchpoints cover it. *)
let redzone_words = 2

(* Size of the generic blank buffer NT-Path fixing points int/char pointers
   at. *)
let generic_blank_words = 64

type env = {
  structs : (string, struct_info) Hashtbl.t;
  funcs : (string, fn_sig) Hashtbl.t;
  globals : (string, Tast.var_ref) Hashtbl.t;
  strings : (string, int) Hashtbl.t;
  mutable next_global : int;
  mutable past_bound : (int * string) option;
      (* line and name of the first allocation that took the globals
         segment past [Program.max_globals_words] *)
  mutable init_data : (int * int) list;
  mutable global_arrays : Tast.global_array list;
  mutable blanks : (string * int) list;
  (* Every local in scope, shadowing by [Hashtbl.add]: a lookup costs O(1)
     however deep the blocks nest. *)
  locals : (string, Tast.var_ref) Hashtbl.t;
  (* Per open block, innermost first: the names it declared, which
     [pop_scope] removes from [locals]. *)
  mutable scopes : string list list;
  mutable frame_next : int;
  mutable local_arrays : Tast.local_array list;
  mutable current_ret : Ast.ty;
}

let create_env () =
  {
    structs = Hashtbl.create 16;
    funcs = Hashtbl.create 64;
    globals = Hashtbl.create 64;
    strings = Hashtbl.create 64;
    next_global = Program.null_guard_words + 1;
    past_bound = None;
    (* the first global word is __heap_ptr, the runtime allocator's break *)
    init_data = [];
    global_arrays = [];
    blanks = [];
    locals = Hashtbl.create 64;
    scopes = [];
    frame_next = 1;
    local_arrays = [];
    current_ret = Ast.Tvoid;
  }

(* Word counts and addresses are non-negative; a sum or product past
   [max_int] would wrap to a negative address, so it is an error instead. *)
let add_words line what a b =
  if b > max_int - a then error line "%s overflows the address space" what;
  a + b

(* Every globals-segment allocation. A sum that wraps is an error at once;
   a segment past [Program.max_globals_words] is reported once the whole
   segment is laid out ([check]), naming the allocation that first crossed
   the bound, so an allocation behind it that wraps still reports its own
   line. *)
let extend_globals env line what words =
  let next = add_words line what env.next_global words in
  if
    env.past_bound = None
    && next - Program.null_guard_words > Program.max_globals_words
  then env.past_bound <- Some (line, what);
  env.next_global <- next

let rec sizeof env line ty =
  match ty with
  | Ast.Tint | Ast.Tptr _ -> 1
  | Ast.Tstruct name ->
    (match Hashtbl.find_opt env.structs name with
     | Some info -> info.s_size
     | None -> error line "unknown struct '%s'" name)
  | Ast.Tarray (elt, n) ->
    if n < 0 then error line "array size required";
    let elt_words = sizeof env line elt in
    if elt_words > 0 && n > max_int / elt_words then
      error line "array of %d elements overflows the address space" n;
    n * elt_words
  | Ast.Tvoid -> error line "sizeof(void)"

let struct_info env line name =
  match Hashtbl.find_opt env.structs name with
  | Some info -> info
  | None -> error line "unknown struct '%s'" name

let field_of env line struct_name fname =
  let info = struct_info env line struct_name in
  match
    List.find_opt (fun f -> f.Tast.f_name = fname) info.s_fields
  with
  | Some f -> f
  | None -> error line "struct '%s' has no field '%s'" struct_name fname

let define_struct env name fields line =
  if Hashtbl.mem env.structs name then error line "duplicate struct '%s'" name;
  let offset = ref 0 in
  let mk_field (ty, fname) =
    let f = { Tast.f_name = fname; f_offset = !offset; f_ty = ty } in
    offset :=
      add_words line
        (Printf.sprintf "struct '%s'" name)
        !offset (sizeof env line ty);
    f
  in
  let tfields = List.map mk_field fields in
  Hashtbl.replace env.structs name { s_fields = tfields; s_size = !offset }

(* Globals: arrays get [redzone_words] of guard space right after their
   payload. *)
let alloc_global env line ty name =
  let addr = env.next_global in
  let payload = sizeof env line ty in
  let extra = match ty with Ast.Tarray _ -> redzone_words | _ -> 0 in
  let what = Printf.sprintf "global '%s'" name in
  extend_globals env line what (add_words line what payload extra);
  let vr = { Tast.vr_name = name; vr_ty = ty; vr_storage = Tast.Global addr } in
  (match ty with
   | Ast.Tarray _ ->
     env.global_arrays <-
       { Tast.ga_ref = vr; ga_elems = payload; ga_line = line }
       :: env.global_arrays
   | _ -> ());
  Hashtbl.replace env.globals name vr;
  vr

let intern_string env line s =
  match Hashtbl.find_opt env.strings s with
  | Some addr -> addr
  | None ->
    let addr = env.next_global in
    extend_globals env line "string literal" (String.length s + 1);
    String.iteri
      (fun i c -> env.init_data <- (addr + i, Char.code c) :: env.init_data)
      s;
    env.init_data <- (addr + String.length s, 0) :: env.init_data;
    Hashtbl.replace env.strings s addr;
    addr

let alloc_local env line ty name =
  let payload = sizeof env line ty in
  let extra = match ty with Ast.Tarray _ -> redzone_words | _ -> 0 in
  let what = Printf.sprintf "local '%s'" name in
  let words = add_words line what payload extra in
  let off = -(add_words line what env.frame_next words - 1) in
  env.frame_next <- env.frame_next + words;
  let vr = { Tast.vr_name = name; vr_ty = ty; vr_storage = Tast.Local off } in
  (match ty with
   | Ast.Tarray _ ->
     env.local_arrays <- { Tast.la_ref = vr; la_elems = payload } :: env.local_arrays
   | _ -> ());
  (match env.scopes with
   | names :: outer ->
     Hashtbl.add env.locals name vr;
     env.scopes <- (name :: names) :: outer
   | [] -> error line "local declaration outside a function");
  vr

let lookup_var env line name =
  match Hashtbl.find_opt env.locals name with
  | Some vr -> vr
  | None ->
    (match Hashtbl.find_opt env.globals name with
     | Some vr -> vr
     | None -> error line "unbound variable '%s'" name)

let builtin_of_name = function
  | "putc" -> Some (Tast.B_putc, 1, Ast.Tvoid)
  | "getc" -> Some (Tast.B_getc, 0, Ast.Tint)
  | "print_int" -> Some (Tast.B_print_int, 1, Ast.Tvoid)
  | "exit" -> Some (Tast.B_exit, 1, Ast.Tvoid)
  | "__watch_region" -> Some (Tast.B_watch_region, 2, Ast.Tvoid)
  | "__unwatch_region" -> Some (Tast.B_unwatch_region, 2, Ast.Tvoid)
  | _ -> None

(* The type an expression has when its value is taken: arrays decay to
   pointers. *)
let decay = function Ast.Tarray (elt, _) -> Ast.Tptr elt | ty -> ty

let is_scalar = function
  | Ast.Tint | Ast.Tptr _ -> true
  | Ast.Tarray _ | Ast.Tstruct _ | Ast.Tvoid -> false

let mk tdesc ety eline : Tast.texpr = { Tast.tdesc; ety; eline }

let is_lvalue_shape (e : Tast.texpr) =
  match e.Tast.tdesc with
  | Tast.Tvar _ | Tast.Tindex _ | Tast.Tderef _ | Tast.Tfield _ | Tast.Tarrow _ ->
    true
  | Tast.Tint_lit _ | Tast.Tstr_addr _ | Tast.Tunop _ | Tast.Tbinop _
  | Tast.Tptr_add _ | Tast.Tptr_diff _ | Tast.Tassign _ | Tast.Tcall_fn _
  | Tast.Tcall_builtin _ | Tast.Taddr _ | Tast.Tcond _ ->
    false

let rec check_expr env (e : Ast.expr) : Tast.texpr =
  let ln = e.Ast.line in
  match e.Ast.desc with
  | Ast.Int_lit n -> mk (Tast.Tint_lit n) Ast.Tint ln
  | Ast.Str_lit s ->
    mk (Tast.Tstr_addr (intern_string env ln s)) (Ast.Tptr Ast.Tint) ln
  | Ast.Var name ->
    let vr = lookup_var env ln name in
    mk (Tast.Tvar vr) vr.Tast.vr_ty ln
  | Ast.Unop (op, e1) ->
    let t1 = check_expr env e1 in
    (match op with
     | Ast.Neg | Ast.Bnot | Ast.Lnot ->
       if not (is_scalar (decay t1.Tast.ety)) then
         error ln "unary operator needs a scalar operand";
       mk (Tast.Tunop (op, t1)) Ast.Tint ln)
  | Ast.Binop (op, e1, e2) -> check_binop env ln op e1 e2
  | Ast.Assign (lhs, rhs) ->
    let tl = check_expr env lhs in
    if not (is_lvalue_shape tl) then error ln "left side of '=' is not assignable";
    if not (is_scalar tl.Tast.ety) then
      error ln "assignment target must be scalar (no aggregate assignment)";
    let tr = check_expr env rhs in
    if not (is_scalar (decay tr.Tast.ety)) then
      error ln "assigned value must be scalar";
    mk (Tast.Tassign (tl, tr)) tl.Tast.ety ln
  | Ast.Call (name, args) ->
    let targs = List.map (check_expr env) args in
    List.iter
      (fun (t : Tast.texpr) ->
        if not (is_scalar (decay t.Tast.ety)) then
          error ln "arguments must be scalar values")
      targs;
    if List.length targs > Reg.max_args then
      error ln "too many arguments to '%s' (max %d)" name Reg.max_args;
    (match builtin_of_name name with
     | Some (builtin, arity, ret) ->
       if List.length targs <> arity then
         error ln "'%s' expects %d argument(s)" name arity;
       mk (Tast.Tcall_builtin (builtin, targs)) ret ln
     | None ->
       (match Hashtbl.find_opt env.funcs name with
        | Some fn ->
          if List.length targs <> List.length fn.fs_params then
            error ln "'%s' expects %d argument(s), got %d" name
              (List.length fn.fs_params) (List.length targs);
          mk (Tast.Tcall_fn (name, targs)) fn.fs_ret ln
        | None -> error ln "unknown function '%s'" name))
  | Ast.Index (base, idx) ->
    let tb = check_expr env base in
    let ti = check_expr env idx in
    (match tb.Tast.ety with
     | Ast.Tarray (elt, _) ->
       mk (Tast.Tindex (tb, ti, sizeof env ln elt)) elt ln
     | Ast.Tptr elt ->
       if elt = Ast.Tvoid then error ln "cannot index a void pointer";
       mk (Tast.Tindex (tb, ti, sizeof env ln elt)) elt ln
     | _ -> error ln "indexed expression is not an array or pointer")
  | Ast.Deref p ->
    let tp = check_expr env p in
    (match decay tp.Tast.ety with
     | Ast.Tptr elt ->
       if elt = Ast.Tvoid then error ln "cannot dereference a void pointer";
       mk (Tast.Tderef tp) elt ln
     | _ -> error ln "dereferenced expression is not a pointer")
  | Ast.Addr lv ->
    let tl = check_expr env lv in
    if not (is_lvalue_shape tl) then error ln "'&' needs an lvalue";
    mk (Tast.Taddr tl) (Ast.Tptr tl.Tast.ety) ln
  | Ast.Field (base, fname) ->
    let tb = check_expr env base in
    (match tb.Tast.ety with
     | Ast.Tstruct sname ->
       if not (is_lvalue_shape tb) then error ln "field access needs an lvalue";
       let f = field_of env ln sname fname in
       mk (Tast.Tfield (tb, f)) f.Tast.f_ty ln
     | _ -> error ln "'.' applied to a non-struct")
  | Ast.Arrow (p, fname) ->
    let tp = check_expr env p in
    (match decay tp.Tast.ety with
     | Ast.Tptr (Ast.Tstruct sname) ->
       let f = field_of env ln sname fname in
       mk (Tast.Tarrow (tp, f)) f.Tast.f_ty ln
     | _ -> error ln "'->' applied to a non-struct-pointer")
  | Ast.Cond (c, a, b) ->
    let tc = check_expr env c in
    let ta = check_expr env a in
    let tb = check_expr env b in
    if not (is_scalar (decay tc.Tast.ety)) then error ln "condition must be scalar";
    if not (is_scalar (decay ta.Tast.ety) && is_scalar (decay tb.Tast.ety)) then
      error ln "'?:' branches must be scalar";
    mk (Tast.Tcond (tc, ta, tb)) (decay ta.Tast.ety) ln
  | Ast.Sizeof ty -> mk (Tast.Tint_lit (sizeof env ln ty)) Ast.Tint ln

and check_binop env ln op e1 e2 =
  let t1 = check_expr env e1 in
  let t2 = check_expr env e2 in
  let ty1 = decay t1.Tast.ety in
  let ty2 = decay t2.Tast.ety in
  let require_scalar () =
    if not (is_scalar ty1 && is_scalar ty2) then
      error ln "'%s' needs scalar operands" (Ast.binop_to_string op)
  in
  match op with
  | Ast.Add ->
    require_scalar ();
    (match (ty1, ty2) with
     | Ast.Tptr elt, Ast.Tint ->
       mk (Tast.Tptr_add (t1, t2, sizeof env ln elt)) ty1 ln
     | Ast.Tint, Ast.Tptr elt ->
       mk (Tast.Tptr_add (t2, t1, sizeof env ln elt)) ty2 ln
     | _ -> mk (Tast.Tbinop (op, t1, t2)) Ast.Tint ln)
  | Ast.Sub ->
    require_scalar ();
    (match (ty1, ty2) with
     | Ast.Tptr elt, Ast.Tint ->
       let neg = mk (Tast.Tunop (Ast.Neg, t2)) Ast.Tint ln in
       mk (Tast.Tptr_add (t1, neg, sizeof env ln elt)) ty1 ln
     | Ast.Tptr elt, Ast.Tptr _ ->
       mk (Tast.Tptr_diff (t1, t2, sizeof env ln elt)) Ast.Tint ln
     | _ -> mk (Tast.Tbinop (op, t1, t2)) Ast.Tint ln)
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Land | Ast.Lor
  | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl
  | Ast.Shr ->
    require_scalar ();
    mk (Tast.Tbinop (op, t1, t2)) Ast.Tint ln

let push_scope env = env.scopes <- [] :: env.scopes

let pop_scope env =
  match env.scopes with
  | names :: outer ->
    List.iter (Hashtbl.remove env.locals) names;
    env.scopes <- outer
  | [] -> invalid_arg "pop_scope"

let mk_stmt tsdesc tsline : Tast.tstmt = { Tast.tsdesc; tsline }

let rec check_stmt env (s : Ast.stmt) : Tast.tstmt list =
  let ln = s.Ast.sline in
  match s.Ast.sdesc with
  | Ast.Sexpr e -> [ mk_stmt (Tast.TSexpr (check_expr env e)) ln ]
  | Ast.Sdecl (ty, name, init) ->
    let ty =
      match (ty, init) with
      | Ast.Tarray (_, n), _ when n < 0 ->
        error ln "local array '%s' needs an explicit size" name
      | _ -> ty
    in
    let _ = sizeof env ln ty in
    let vr = alloc_local env ln ty name in
    (match init with
     | None -> []
     | Some e ->
       if not (is_scalar ty) then error ln "cannot initialise aggregate '%s'" name;
       let lhs = mk (Tast.Tvar vr) ty ln in
       let rhs = check_expr env e in
       [ mk_stmt (Tast.TSexpr (mk (Tast.Tassign (lhs, rhs)) ty ln)) ln ])
  | Ast.Sif (c, then_s, else_s) ->
    let tc = check_expr env c in
    let tthen = check_body env then_s in
    let telse = check_body env else_s in
    [ mk_stmt (Tast.TSif (tc, tthen, telse)) ln ]
  | Ast.Swhile (c, body) ->
    let tc = check_expr env c in
    let tbody = check_body env body in
    [ mk_stmt (Tast.TSwhile (tc, tbody)) ln ]
  | Ast.Sfor (init, cond, step, body) ->
    let tinit = Option.map (check_expr env) init in
    let tcond = Option.map (check_expr env) cond in
    let tstep = Option.map (check_expr env) step in
    let tbody = check_body env body in
    [ mk_stmt (Tast.TSfor (tinit, tcond, tstep, tbody)) ln ]
  | Ast.Sreturn None ->
    if env.current_ret <> Ast.Tvoid then error ln "missing return value";
    [ mk_stmt (Tast.TSreturn None) ln ]
  | Ast.Sreturn (Some e) ->
    if env.current_ret = Ast.Tvoid then error ln "void function returns a value";
    [ mk_stmt (Tast.TSreturn (Some (check_expr env e))) ln ]
  | Ast.Sbreak -> [ mk_stmt Tast.TSbreak ln ]
  | Ast.Scontinue -> [ mk_stmt Tast.TScontinue ln ]
  | Ast.Sassert e -> [ mk_stmt (Tast.TSassert (check_expr env e)) ln ]
  | Ast.Sblock body -> [ mk_stmt (Tast.TSblock (check_body env body)) ln ]

and check_body env stmts =
  push_scope env;
  let checked = List.concat_map (check_stmt env) stmts in
  pop_scope env;
  checked

let check_func env ~runtime (f : Ast.func) : Tast.tfunc =
  env.frame_next <- 1;
  env.local_arrays <- [];
  env.current_ret <- f.Ast.fret;
  push_scope env;
  let params =
    List.map (fun (ty, name) -> alloc_local env f.Ast.fline ty name) f.Ast.fparams
  in
  let body = List.concat_map (check_stmt env) f.Ast.fbody in
  pop_scope env;
  {
    Tast.tf_name = f.Ast.fname;
    tf_ret = f.Ast.fret;
    tf_params = params;
    tf_body = body;
    tf_frame_words = env.frame_next - 1;
    tf_local_arrays = List.rev env.local_arrays;
    tf_is_runtime = runtime;
    tf_line = f.Ast.fline;
  }

let register_signatures env ~runtime globals =
  List.iter
    (fun g ->
      match g with
      | Ast.Gfunc f ->
        if Hashtbl.mem env.funcs f.Ast.fname then
          error f.Ast.fline "duplicate function '%s'" f.Ast.fname;
        if builtin_of_name f.Ast.fname <> None then
          error f.Ast.fline "'%s' is a builtin" f.Ast.fname;
        Hashtbl.replace env.funcs f.Ast.fname
          {
            fs_ret = f.Ast.fret;
            fs_params = List.map fst f.Ast.fparams;
            fs_runtime = runtime;
          }
      | Ast.Gvar _ | Ast.Gstruct _ -> ())
    globals

let infer_global_array_size line ty init name =
  match (ty, init) with
  | Ast.Tarray (elt, n), _ when n >= 0 -> Ast.Tarray (elt, n)
  | Ast.Tarray (elt, _), Some (Ast.Init_string s) ->
    Ast.Tarray (elt, String.length s + 1)
  | Ast.Tarray (elt, _), Some (Ast.Init_list values) ->
    Ast.Tarray (elt, List.length values)
  | Ast.Tarray _, _ -> error line "global array '%s' needs a size" name
  | _ -> ty

let install_global_init env line vr init =
  let addr =
    match vr.Tast.vr_storage with
    | Tast.Global a -> a
    | Tast.Local _ | Tast.Reg _ -> assert false
  in
  match init with
  | None -> ()
  | Some (Ast.Init_int n) -> env.init_data <- (addr, n) :: env.init_data
  | Some (Ast.Init_string s) ->
    (match vr.Tast.vr_ty with
     | Ast.Tarray (_, size) ->
       if String.length s + 1 > size then
         error line "string initialiser longer than array '%s'" vr.Tast.vr_name;
       String.iteri
         (fun i c -> env.init_data <- (addr + i, Char.code c) :: env.init_data)
         s;
       env.init_data <- (addr + String.length s, 0) :: env.init_data
     | _ -> error line "string initialiser on a non-array")
  | Some (Ast.Init_list values) ->
    (match vr.Tast.vr_ty with
     | Ast.Tarray (_, size) ->
       if List.length values > size then
         error line "too many initialisers for '%s'" vr.Tast.vr_name;
       List.iteri
         (fun i v -> env.init_data <- (addr + i, v) :: env.init_data)
         values
     | _ -> error line "list initialiser on a non-array")

let process_structs_and_globals env globals =
  List.iter
    (fun g ->
      match g with
      | Ast.Gstruct (name, fields, line) -> define_struct env name fields line
      | Ast.Gvar (ty, name, init, line) ->
        let ty = infer_global_array_size line ty init name in
        let _ = sizeof env line ty in
        if Hashtbl.mem env.globals name then
          error line "duplicate global '%s'" name;
        let vr = alloc_global env line ty name in
        install_global_init env line vr init
      | Ast.Gfunc _ -> ())
    globals

let allocate_blanks env =
  let generic = env.next_global in
  extend_globals env 0 "blank buffer" generic_blank_words;
  env.blanks <- [ ("generic", generic) ];
  Hashtbl.iter
    (fun name info ->
      let addr = env.next_global in
      extend_globals env 0 "blank buffer" (max 1 info.s_size);
      env.blanks <- (name, addr) :: env.blanks)
    env.structs

(* [check ~user ~prelude ~tags] typechecks the user program together with the
   runtime prelude. The special global [__heap_ptr] (the allocator break) is
   predefined at address 1 and set up by the machine at load time. *)
let check ~user ~prelude ~tags : Tast.tprogram =
  let env = create_env () in
  Hashtbl.replace env.globals "__heap_ptr"
    {
      Tast.vr_name = "__heap_ptr";
      vr_ty = Ast.Tint;
      vr_storage = Tast.Global Program.null_guard_words;
    };
  register_signatures env ~runtime:false user;
  register_signatures env ~runtime:true prelude;
  process_structs_and_globals env user;
  process_structs_and_globals env prelude;
  allocate_blanks env;
  if not (Hashtbl.mem env.funcs "main") then error 0 "no 'main' function";
  let check_funcs ~runtime globals =
    List.filter_map
      (fun g ->
        match g with
        | Ast.Gfunc f -> Some (check_func env ~runtime f)
        | Ast.Gvar _ | Ast.Gstruct _ -> None)
      globals
  in
  let user_funcs = check_funcs ~runtime:false user in
  let prelude_funcs = check_funcs ~runtime:true prelude in
  (match env.past_bound with
   | Some (line, what) ->
     error line "%s does not fit the %d-word globals segment" what
       Program.max_globals_words
   | None -> ());
  {
    Tast.tp_funcs = user_funcs @ prelude_funcs;
    tp_global_vars =
      Hashtbl.fold
        (fun name vr acc ->
          match vr.Tast.vr_storage with
          | Tast.Global addr -> (name, addr) :: acc
          | Tast.Local _ | Tast.Reg _ -> acc)
        env.globals [];
    tp_globals_words = env.next_global - Program.null_guard_words;
    tp_init_data = List.rev env.init_data;
    tp_global_arrays = List.rev env.global_arrays;
    tp_blank_addrs = env.blanks;
    tp_struct_sizes =
      Hashtbl.fold (fun name info acc -> (name, info.s_size) :: acc) env.structs [];
    tp_tags = tags;
  }
