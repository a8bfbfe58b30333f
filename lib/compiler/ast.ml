type ty =
  | Tint
  | Tptr of ty
  | Tarray of ty * int
  | Tstruct of string
  | Tvoid

type unop = Neg | Lnot | Bnot

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Land
  | Lor

type expr = { desc : desc; line : int }

and desc =
  | Int_lit of int
  | Str_lit of string
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of expr * expr
  | Call of string * expr list
  | Index of expr * expr
  | Deref of expr
  | Addr of expr
  | Field of expr * string
  | Arrow of expr * string
  | Cond of expr * expr * expr
  | Sizeof of ty

type stmt = { sdesc : sdesc; sline : int }

and sdesc =
  | Sexpr of expr
  | Sdecl of ty * string * expr option
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of expr option * expr option * expr option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sassert of expr
  | Sblock of stmt list

type func = {
  fname : string;
  fret : ty;
  fparams : (ty * string) list;
  fbody : stmt list;
  fline : int;
}

type init = Init_int of int | Init_string of string | Init_list of int list

type global =
  | Gvar of ty * string * init option * int
  | Gstruct of string * (ty * string) list * int
  | Gfunc of func

type program = global list

let rec ty_to_string = function
  | Tint -> "int"
  | Tptr t -> ty_to_string t ^ " *"
  | Tarray (t, n) -> Printf.sprintf "%s[%d]" (ty_to_string t) n
  | Tstruct name -> "struct " ^ name
  | Tvoid -> "void"

let unop_to_string = function Neg -> "-" | Lnot -> "!" | Bnot -> "~"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Land -> "&&"
  | Lor -> "||"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\000' -> Buffer.add_string buf "\\0"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec expr_to_string e =
  match e.desc with
  | Int_lit n -> string_of_int n
  | Str_lit s -> Printf.sprintf "\"%s\"" (escape_string s)
  | Var name -> name
  | Unop (op, e1) -> Printf.sprintf "(%s%s)" (unop_to_string op) (expr_to_string e1)
  | Binop (op, e1, e2) ->
    Printf.sprintf "(%s %s %s)" (expr_to_string e1) (binop_to_string op)
      (expr_to_string e2)
  | Assign (lhs, rhs) ->
    Printf.sprintf "(%s = %s)" (expr_to_string lhs) (expr_to_string rhs)
  | Call (name, args) ->
    Printf.sprintf "%s(%s)" name (String.concat ", " (List.map expr_to_string args))
  | Index (e1, e2) ->
    Printf.sprintf "%s[%s]" (expr_to_string e1) (expr_to_string e2)
  | Deref e1 -> Printf.sprintf "(*%s)" (expr_to_string e1)
  | Addr e1 -> Printf.sprintf "(&%s)" (expr_to_string e1)
  | Field (e1, f) -> Printf.sprintf "%s.%s" (expr_to_string e1) f
  | Arrow (e1, f) -> Printf.sprintf "%s->%s" (expr_to_string e1) f
  | Cond (c, t, f) ->
    Printf.sprintf "(%s ? %s : %s)" (expr_to_string c) (expr_to_string t)
      (expr_to_string f)
  | Sizeof t -> Printf.sprintf "sizeof(%s)" (ty_to_string t)

let rec stmt_to_string ~indent stmt =
  let pad = String.make indent ' ' in
  let block stmts =
    String.concat "" (List.map (stmt_to_string ~indent:(indent + 2)) stmts)
  in
  match stmt.sdesc with
  | Sexpr e -> Printf.sprintf "%s%s;\n" pad (expr_to_string e)
  | Sdecl (ty, name, init) ->
    let init_str =
      match init with
      | None -> ""
      | Some e -> " = " ^ expr_to_string e
    in
    (match ty with
     | Tarray (elt, n) ->
       Printf.sprintf "%s%s %s[%d]%s;\n" pad (ty_to_string elt) name n init_str
     | _ -> Printf.sprintf "%s%s %s%s;\n" pad (ty_to_string ty) name init_str)
  | Sif (c, then_s, []) ->
    Printf.sprintf "%sif (%s) {\n%s%s}\n" pad (expr_to_string c) (block then_s) pad
  | Sif (c, then_s, else_s) ->
    Printf.sprintf "%sif (%s) {\n%s%s} else {\n%s%s}\n" pad (expr_to_string c)
      (block then_s) pad (block else_s) pad
  | Swhile (c, body) ->
    Printf.sprintf "%swhile (%s) {\n%s%s}\n" pad (expr_to_string c) (block body) pad
  | Sfor (init, cond, step, body) ->
    let opt = function None -> "" | Some e -> expr_to_string e in
    Printf.sprintf "%sfor (%s; %s; %s) {\n%s%s}\n" pad (opt init) (opt cond)
      (opt step) (block body) pad
  | Sreturn None -> Printf.sprintf "%sreturn;\n" pad
  | Sreturn (Some e) -> Printf.sprintf "%sreturn %s;\n" pad (expr_to_string e)
  | Sbreak -> Printf.sprintf "%sbreak;\n" pad
  | Scontinue -> Printf.sprintf "%scontinue;\n" pad
  | Sassert e -> Printf.sprintf "%sassert(%s);\n" pad (expr_to_string e)
  | Sblock stmts -> Printf.sprintf "%s{\n%s%s}\n" pad (block stmts) pad

let global_to_string g =
  match g with
  | Gvar (ty, name, init, _) ->
    let init_str =
      match init with
      | None -> ""
      | Some (Init_int n) -> Printf.sprintf " = %d" n
      | Some (Init_string s) -> Printf.sprintf " = \"%s\"" (escape_string s)
      | Some (Init_list ns) ->
        Printf.sprintf " = {%s}" (String.concat ", " (List.map string_of_int ns))
    in
    (match ty with
     | Tarray (elt, n) ->
       Printf.sprintf "%s %s[%d]%s;\n" (ty_to_string elt) name n init_str
     | _ -> Printf.sprintf "%s %s%s;\n" (ty_to_string ty) name init_str)
  | Gstruct (name, fields, _) ->
    let field_str =
      String.concat ""
        (List.map
           (fun (ty, fname) ->
             match ty with
             | Tarray (elt, n) ->
               Printf.sprintf "  %s %s[%d];\n" (ty_to_string elt) fname n
             | _ -> Printf.sprintf "  %s %s;\n" (ty_to_string ty) fname)
           fields)
    in
    Printf.sprintf "struct %s {\n%s};\n" name field_str
  | Gfunc f ->
    let params =
      String.concat ", "
        (List.map (fun (ty, name) -> ty_to_string ty ^ " " ^ name) f.fparams)
    in
    Printf.sprintf "%s %s(%s) {\n%s}\n" (ty_to_string f.fret) f.fname params
      (String.concat "" (List.map (stmt_to_string ~indent:2) f.fbody))

let program_to_string program =
  String.concat "\n" (List.map global_to_string program)
