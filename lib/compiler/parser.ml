exception Error of string * int

(* The parser pulls tokens from the lexer through a three-token window: the
   current token and the two after it ([parse_global] tells a struct
   definition from a struct-typed global by the third). *)
type state = {
  lexer : Lexer.t;
  mutable tok : Token.t;
  mutable tok_line : int;
  mutable tok2 : Token.t;
  mutable tok2_line : int;
  mutable tok3 : Token.t;
  mutable tok3_line : int;
}

(* A syntax error at the current token. A lexical error later in the source
   takes precedence, as it would if the source were lexed whole first. *)
let error state fmt =
  Printf.ksprintf
    (fun s ->
      Lexer.drain state.lexer;
      raise (Error (s, state.tok_line)))
    fmt

let peek state = state.tok

let peek2 state = state.tok2

let line state = state.tok_line

(* [at state tok]: the current token is [tok], a constant constructor
   (physical equality is exact for those). *)
let at state tok = state.tok == tok

let advance state =
  state.tok <- state.tok2;
  state.tok_line <- state.tok2_line;
  state.tok2 <- state.tok3;
  state.tok2_line <- state.tok3_line;
  state.tok3 <- Lexer.next state.lexer;
  state.tok3_line <- Lexer.line state.lexer

let eat state tok =
  if at state tok then advance state
  else
    error state "expected '%s' but found '%s'" (Token.to_string tok)
      (Token.to_string (peek state))

let eat_ident state =
  match peek state with
  | Token.Tok_ident name ->
    advance state;
    name
  | tok -> error state "expected identifier, found '%s'" (Token.to_string tok)

(* A type starts with int/char/void or 'struct Name' (when not a struct
   definition). *)
let starts_type state =
  match peek state with
  | Token.Kw_int | Token.Kw_char | Token.Kw_void -> true
  | Token.Kw_struct ->
    (match peek2 state with Token.Tok_ident _ -> true | _ -> false)
  | _ -> false

let parse_base_type state =
  match peek state with
  | Token.Kw_int ->
    advance state;
    Ast.Tint
  | Token.Kw_char ->
    advance state;
    Ast.Tint
  | Token.Kw_void ->
    advance state;
    Ast.Tvoid
  | Token.Kw_struct ->
    advance state;
    let name = eat_ident state in
    Ast.Tstruct name
  | tok -> error state "expected type, found '%s'" (Token.to_string tok)

let parse_pointers state base =
  let ty = ref base in
  while at state Token.Star do
    advance state;
    ty := Ast.Tptr !ty
  done;
  !ty

let parse_type state = parse_pointers state (parse_base_type state)

let mk desc ln : Ast.expr = { Ast.desc; line = ln }

let rec parse_expr state = parse_assign state

and parse_assign state =
  let lhs = parse_cond_expr state in
  match peek state with
  | Token.Assign ->
    let ln = line state in
    advance state;
    let rhs = parse_assign state in
    mk (Ast.Assign (lhs, rhs)) ln
  | _ -> lhs

and parse_cond_expr state =
  let cond = parse_lor state in
  match peek state with
  | Token.Question ->
    let ln = line state in
    advance state;
    let then_e = parse_expr state in
    eat state Token.Colon;
    let else_e = parse_cond_expr state in
    mk (Ast.Cond (cond, then_e, else_e)) ln
  | _ -> cond

and parse_binop_level state op_of next =
  let lhs = ref (next state) in
  let continue = ref true in
  while !continue do
    match op_of (peek state) with
    | Some op ->
      let ln = line state in
      advance state;
      let rhs = next state in
      lhs := mk (Ast.Binop (op, !lhs, rhs)) ln
    | None -> continue := false
  done;
  !lhs

and parse_lor state =
  parse_binop_level state
    (function Token.Pipe_pipe -> Some Ast.Lor | _ -> None)
    parse_land

and parse_land state =
  parse_binop_level state
    (function Token.Amp_amp -> Some Ast.Land | _ -> None)
    parse_bor

and parse_bor state =
  parse_binop_level state
    (function Token.Pipe -> Some Ast.Bor | _ -> None)
    parse_bxor

and parse_bxor state =
  parse_binop_level state
    (function Token.Caret -> Some Ast.Bxor | _ -> None)
    parse_band

and parse_band state =
  parse_binop_level state
    (function Token.Amp -> Some Ast.Band | _ -> None)
    parse_eq

and parse_eq state =
  parse_binop_level state
    (function
      | Token.Eq_eq -> Some Ast.Eq | Token.Bang_eq -> Some Ast.Ne | _ -> None)
    parse_rel

and parse_rel state =
  parse_binop_level state
    (function
      | Token.Lt -> Some Ast.Lt
      | Token.Le -> Some Ast.Le
      | Token.Gt -> Some Ast.Gt
      | Token.Ge -> Some Ast.Ge
      | _ -> None)
    parse_shift

and parse_shift state =
  parse_binop_level state
    (function Token.Shl -> Some Ast.Shl | Token.Shr -> Some Ast.Shr | _ -> None)
    parse_add

and parse_add state =
  parse_binop_level state
    (function Token.Plus -> Some Ast.Add | Token.Minus -> Some Ast.Sub | _ -> None)
    parse_mul

and parse_mul state =
  parse_binop_level state
    (function
      | Token.Star -> Some Ast.Mul
      | Token.Slash -> Some Ast.Div
      | Token.Percent -> Some Ast.Mod
      | _ -> None)
    parse_unary

and parse_unary state =
  let ln = line state in
  match peek state with
  | Token.Minus ->
    advance state;
    mk (Ast.Unop (Ast.Neg, parse_unary state)) ln
  | Token.Bang ->
    advance state;
    mk (Ast.Unop (Ast.Lnot, parse_unary state)) ln
  | Token.Tilde ->
    advance state;
    mk (Ast.Unop (Ast.Bnot, parse_unary state)) ln
  | Token.Star ->
    advance state;
    mk (Ast.Deref (parse_unary state)) ln
  | Token.Amp ->
    advance state;
    mk (Ast.Addr (parse_unary state)) ln
  | Token.Kw_sizeof ->
    advance state;
    eat state Token.Lparen;
    let ty = parse_type state in
    eat state Token.Rparen;
    mk (Ast.Sizeof ty) ln
  | _ -> parse_postfix state

and parse_postfix state =
  let e = ref (parse_primary state) in
  let continue = ref true in
  while !continue do
    let ln = line state in
    match peek state with
    | Token.Lbracket ->
      advance state;
      let idx = parse_expr state in
      eat state Token.Rbracket;
      e := mk (Ast.Index (!e, idx)) ln
    | Token.Dot ->
      advance state;
      let field = eat_ident state in
      e := mk (Ast.Field (!e, field)) ln
    | Token.Arrow ->
      advance state;
      let field = eat_ident state in
      e := mk (Ast.Arrow (!e, field)) ln
    | _ -> continue := false
  done;
  !e

and parse_primary state =
  let ln = line state in
  match peek state with
  | Token.Tok_int n ->
    advance state;
    mk (Ast.Int_lit n) ln
  | Token.Kw_null ->
    advance state;
    mk (Ast.Int_lit 0) ln
  | Token.Tok_string s ->
    advance state;
    mk (Ast.Str_lit s) ln
  | Token.Tok_ident name ->
    advance state;
    if at state Token.Lparen then begin
      advance state;
      let args = parse_args state in
      eat state Token.Rparen;
      mk (Ast.Call (name, args)) ln
    end
    else mk (Ast.Var name) ln
  | Token.Lparen ->
    advance state;
    let e = parse_expr state in
    eat state Token.Rparen;
    e
  | tok -> error state "expected expression, found '%s'" (Token.to_string tok)

and parse_args state =
  if at state Token.Rparen then []
  else begin
    let first = parse_expr state in
    let rest = ref [ first ] in
    while at state Token.Comma do
      advance state;
      rest := parse_expr state :: !rest
    done;
    List.rev !rest
  end

let mk_stmt sdesc sline : Ast.stmt = { Ast.sdesc; sline }

let parse_array_suffix state ty =
  if at state Token.Lbracket then begin
    advance state;
    match peek state with
    | Token.Tok_int n ->
      advance state;
      eat state Token.Rbracket;
      Ast.Tarray (ty, n)
    | Token.Rbracket ->
      advance state;
      Ast.Tarray (ty, -1)
    | tok -> error state "expected array size, found '%s'" (Token.to_string tok)
  end
  else ty

let rec parse_stmt state =
  let ln = line state in
  match peek state with
  | Token.Lbrace ->
    advance state;
    let body = parse_block state in
    mk_stmt (Ast.Sblock body) ln
  | Token.Kw_if ->
    advance state;
    eat state Token.Lparen;
    let cond = parse_expr state in
    eat state Token.Rparen;
    let then_s = parse_branch_body state in
    let else_s =
      if at state Token.Kw_else then begin
        advance state;
        parse_branch_body state
      end
      else []
    in
    mk_stmt (Ast.Sif (cond, then_s, else_s)) ln
  | Token.Kw_while ->
    advance state;
    eat state Token.Lparen;
    let cond = parse_expr state in
    eat state Token.Rparen;
    let body = parse_branch_body state in
    mk_stmt (Ast.Swhile (cond, body)) ln
  | Token.Kw_for ->
    advance state;
    eat state Token.Lparen;
    let init = if at state Token.Semi then None else Some (parse_expr state) in
    eat state Token.Semi;
    let cond = if at state Token.Semi then None else Some (parse_expr state) in
    eat state Token.Semi;
    let step = if at state Token.Rparen then None else Some (parse_expr state) in
    eat state Token.Rparen;
    let body = parse_branch_body state in
    mk_stmt (Ast.Sfor (init, cond, step, body)) ln
  | Token.Kw_return ->
    advance state;
    if at state Token.Semi then begin
      advance state;
      mk_stmt (Ast.Sreturn None) ln
    end
    else begin
      let e = parse_expr state in
      eat state Token.Semi;
      mk_stmt (Ast.Sreturn (Some e)) ln
    end
  | Token.Kw_break ->
    advance state;
    eat state Token.Semi;
    mk_stmt Ast.Sbreak ln
  | Token.Kw_continue ->
    advance state;
    eat state Token.Semi;
    mk_stmt Ast.Scontinue ln
  | Token.Kw_assert ->
    advance state;
    eat state Token.Lparen;
    let e = parse_expr state in
    eat state Token.Rparen;
    eat state Token.Semi;
    mk_stmt (Ast.Sassert e) ln
  | _ when starts_type state ->
    let base = parse_type state in
    let name = eat_ident state in
    let ty = parse_array_suffix state base in
    let init =
      if at state Token.Assign then begin
        advance state;
        Some (parse_expr state)
      end
      else None
    in
    eat state Token.Semi;
    mk_stmt (Ast.Sdecl (ty, name, init)) ln
  | _ ->
    let e = parse_expr state in
    eat state Token.Semi;
    mk_stmt (Ast.Sexpr e) ln

and parse_branch_body state =
  if at state Token.Lbrace then begin
    advance state;
    parse_block state
  end
  else [ parse_stmt state ]

and parse_block state =
  let stmts = ref [] in
  while not (at state Token.Rbrace) do
    if at state Token.Eof then error state "unexpected end of file in block";
    stmts := parse_stmt state :: !stmts
  done;
  eat state Token.Rbrace;
  List.rev !stmts

let parse_init_list state =
  eat state Token.Lbrace;
  let values = ref [] in
  let parse_signed () =
    match peek state with
    | Token.Minus ->
      advance state;
      (match peek state with
       | Token.Tok_int n ->
         advance state;
         -n
       | tok -> error state "expected integer, found '%s'" (Token.to_string tok))
    | Token.Tok_int n ->
      advance state;
      n
    | tok -> error state "expected integer, found '%s'" (Token.to_string tok)
  in
  if not (at state Token.Rbrace) then begin
    values := [ parse_signed () ];
    while at state Token.Comma do
      advance state;
      values := parse_signed () :: !values
    done
  end;
  eat state Token.Rbrace;
  List.rev !values

let parse_struct_def state =
  let ln = line state in
  eat state Token.Kw_struct;
  let name = eat_ident state in
  eat state Token.Lbrace;
  let fields = ref [] in
  while not (at state Token.Rbrace) do
    let base = parse_type state in
    let fname = eat_ident state in
    let ty = parse_array_suffix state base in
    eat state Token.Semi;
    fields := (ty, fname) :: !fields
  done;
  eat state Token.Rbrace;
  eat state Token.Semi;
  Ast.Gstruct (name, List.rev !fields, ln)

let parse_params state =
  eat state Token.Lparen;
  if at state Token.Rparen then begin
    advance state;
    []
  end
  else if at state Token.Kw_void && peek2 state == Token.Rparen then begin
    advance state;
    advance state;
    []
  end
  else begin
    let parse_param () =
      let ty = parse_type state in
      let name = eat_ident state in
      (* Array parameters decay to pointers. *)
      let ty = match parse_array_suffix state ty with
        | Ast.Tarray (elt, _) -> Ast.Tptr elt
        | t -> t
      in
      (ty, name)
    in
    let params = ref [ parse_param () ] in
    while at state Token.Comma do
      advance state;
      params := parse_param () :: !params
    done;
    eat state Token.Rparen;
    List.rev !params
  end

let parse_global state =
  let ln = line state in
  if
    at state Token.Kw_struct
    && match peek2 state with Token.Tok_ident _ | Token.Eof -> false | _ -> true
  then error state "expected struct name"
  else if at state Token.Kw_struct && state.tok3 == Token.Lbrace then
    parse_struct_def state
  else begin
    let base = parse_type state in
    let name = eat_ident state in
    if at state Token.Lparen then begin
      let params = parse_params state in
      eat state Token.Lbrace;
      let body = parse_block state in
      Ast.Gfunc { Ast.fname = name; fret = base; fparams = params; fbody = body; fline = ln }
    end
    else begin
      let ty = parse_array_suffix state base in
      let init =
        if at state Token.Assign then begin
          advance state;
          match peek state with
          | Token.Lbrace -> Some (Ast.Init_list (parse_init_list state))
          | Token.Kw_null ->
            advance state;
            Some (Ast.Init_int 0)
          | Token.Tok_string s ->
            advance state;
            Some (Ast.Init_string s)
          | Token.Minus ->
            advance state;
            (match peek state with
             | Token.Tok_int n ->
               advance state;
               Some (Ast.Init_int (-n))
             | tok ->
               error state "expected integer initialiser, found '%s'"
                 (Token.to_string tok))
          | Token.Tok_int n ->
            advance state;
            Some (Ast.Init_int n)
          | tok ->
            error state "expected global initialiser, found '%s'"
              (Token.to_string tok)
        end
        else None
      in
      eat state Token.Semi;
      Ast.Gvar (ty, name, init, ln)
    end
  end

let parse_string ?first_line source =
  let lexer = Lexer.create ?first_line source in
  let tok = Lexer.next lexer in
  let tok_line = Lexer.line lexer in
  let tok2 = Lexer.next lexer in
  let tok2_line = Lexer.line lexer in
  let tok3 = Lexer.next lexer in
  let state =
    { lexer; tok; tok_line; tok2; tok2_line; tok3; tok3_line = Lexer.line lexer }
  in
  let globals = ref [] in
  while not (at state Token.Eof) do
    globals := parse_global state :: !globals
  done;
  (List.rev !globals, Lexer.tags lexer)
