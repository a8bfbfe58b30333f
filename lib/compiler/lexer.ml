exception Error of string * int

type t = {
  source : string;
  n : int;
  mutable pos : int;
  mutable line : int;
  mutable tok_line : int;  (* line of the token [next] last returned *)
  mutable rev_tags : (string * int) list;  (* //@tag name -> line, newest first *)
}

type result = {
  tokens : Token.t array;
  lines : int array;
  tags : (string * int) list;
}

let error line fmt = Printf.ksprintf (fun s -> raise (Error (s, line))) fmt

let keyword_or_ident = function
  | "int" -> Token.Kw_int
  | "char" -> Token.Kw_char
  | "void" -> Token.Kw_void
  | "struct" -> Token.Kw_struct
  | "if" -> Token.Kw_if
  | "else" -> Token.Kw_else
  | "while" -> Token.Kw_while
  | "for" -> Token.Kw_for
  | "return" -> Token.Kw_return
  | "break" -> Token.Kw_break
  | "continue" -> Token.Kw_continue
  | "sizeof" -> Token.Kw_sizeof
  | "assert" -> Token.Kw_assert
  | "NULL" -> Token.Kw_null
  | text -> Token.Tok_ident text

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let escape_char line = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> error line "unknown escape '\\%c'" c

let create ?(first_line = 1) source =
  {
    source;
    n = String.length source;
    pos = 0;
    line = first_line;
    tok_line = first_line;
    rev_tags = [];
  }

let line lx = lx.tok_line

let tags lx = List.rev lx.rev_tags

(* [has lx k]: the source has a character [k] past the cursor. *)
let has lx k = lx.pos + k < lx.n

(* The character [k] past the cursor, or ['\000'] past the end: callers
   compare it with printable characters only, or check [has] first. *)
let char_at lx k = if has lx k then String.unsafe_get lx.source (lx.pos + k) else '\000'

let advance lx = lx.pos <- lx.pos + 1

let skip lx k = lx.pos <- lx.pos + k

(* The cursor is just past "//": capture //@tag markers so workloads can
   name source lines robustly. *)
let read_line_comment lx =
  let start = lx.pos in
  while lx.pos < lx.n && lx.source.[lx.pos] <> '\n' do
    advance lx
  done;
  let prefix = "@tag " in
  let plen = String.length prefix in
  if lx.pos - start >= plen && String.sub lx.source start plen = prefix then begin
    let name =
      String.trim (String.sub lx.source (start + plen) (lx.pos - start - plen))
    in
    if name <> "" then lx.rev_tags <- (name, lx.line) :: lx.rev_tags
  end

let read_block_comment lx =
  let closed = ref false in
  while (not !closed) && lx.pos < lx.n do
    match lx.source.[lx.pos] with
    | '*' when char_at lx 1 = '/' ->
      skip lx 2;
      closed := true
    | '\n' ->
      lx.line <- lx.line + 1;
      advance lx
    | _ -> advance lx
  done;
  if not !closed then error lx.line "unterminated comment"

(* Decimal literal; out of range exactly when [int_of_string] would fail. *)
let read_number lx =
  let start = lx.pos in
  let v = ref 0 in
  let overflow = ref false in
  while lx.pos < lx.n && is_digit lx.source.[lx.pos] do
    let d = Char.code lx.source.[lx.pos] - Char.code '0' in
    if !v > (max_int - d) / 10 then overflow := true else v := (!v * 10) + d;
    advance lx
  done;
  if !overflow then
    error lx.line "integer literal %s out of range"
      (String.sub lx.source start (lx.pos - start));
  Token.Tok_int !v

let read_ident lx =
  let start = lx.pos in
  while lx.pos < lx.n && is_ident_char lx.source.[lx.pos] do
    advance lx
  done;
  keyword_or_ident (String.sub lx.source start (lx.pos - start))

let read_string lx =
  advance lx;
  let buf = Buffer.create 16 in
  let closed = ref false in
  while (not !closed) && lx.pos < lx.n do
    match lx.source.[lx.pos] with
    | '"' ->
      advance lx;
      closed := true
    | '\\' ->
      if has lx 1 then begin
        Buffer.add_char buf (escape_char lx.line lx.source.[lx.pos + 1]);
        skip lx 2
      end
      else error lx.line "dangling backslash"
    | '\n' -> error lx.line "newline in string literal"
    | c ->
      Buffer.add_char buf c;
      advance lx
  done;
  if not !closed then error lx.line "unterminated string literal";
  Token.Tok_string (Buffer.contents buf)

let read_char_literal lx =
  advance lx;
  let c =
    if not (has lx 0) then error lx.line "unterminated character literal"
    else
      match lx.source.[lx.pos] with
      | '\\' ->
        if has lx 1 then begin
          advance lx;
          escape_char lx.line lx.source.[lx.pos]
        end
        else error lx.line "dangling backslash"
      | c -> c
  in
  advance lx;
  if char_at lx 0 = '\'' then advance lx
  else error lx.line "unterminated character literal";
  Token.Tok_int (Char.code c)

(* [c2] following the cursor makes the two-character token [tok]; otherwise
   the one-character [fallback]. *)
let two_char lx c2 tok fallback =
  if char_at lx 1 = c2 then begin
    skip lx 2;
    tok
  end
  else begin
    advance lx;
    fallback
  end

let one_char lx tok =
  advance lx;
  tok

let rec next lx =
  if lx.pos >= lx.n then begin
    lx.tok_line <- lx.line;
    Token.Eof
  end
  else
    match lx.source.[lx.pos] with
    | ' ' | '\t' | '\r' ->
      advance lx;
      next lx
    | '\n' ->
      lx.line <- lx.line + 1;
      advance lx;
      next lx
    | '/' when char_at lx 1 = '/' ->
      skip lx 2;
      read_line_comment lx;
      next lx
    | '/' when char_at lx 1 = '*' ->
      skip lx 2;
      read_block_comment lx;
      next lx
    | c ->
      let tok =
        match c with
        | '/' -> one_char lx Token.Slash
        | c when is_digit c -> read_number lx
        | c when is_ident_start c -> read_ident lx
        | '"' -> read_string lx
        | '\'' -> read_char_literal lx
        | '(' -> one_char lx Token.Lparen
        | ')' -> one_char lx Token.Rparen
        | '{' -> one_char lx Token.Lbrace
        | '}' -> one_char lx Token.Rbrace
        | '[' -> one_char lx Token.Lbracket
        | ']' -> one_char lx Token.Rbracket
        | ';' -> one_char lx Token.Semi
        | ',' -> one_char lx Token.Comma
        | '.' -> one_char lx Token.Dot
        | '+' -> one_char lx Token.Plus
        | '-' -> two_char lx '>' Token.Arrow Token.Minus
        | '*' -> one_char lx Token.Star
        | '%' -> one_char lx Token.Percent
        | '&' -> two_char lx '&' Token.Amp_amp Token.Amp
        | '|' -> two_char lx '|' Token.Pipe_pipe Token.Pipe
        | '^' -> one_char lx Token.Caret
        | '~' -> one_char lx Token.Tilde
        | '!' -> two_char lx '=' Token.Bang_eq Token.Bang
        | '<' ->
          (match char_at lx 1 with
           | '=' -> skip lx 2; Token.Le
           | '<' -> skip lx 2; Token.Shl
           | _ -> one_char lx Token.Lt)
        | '>' ->
          (match char_at lx 1 with
           | '=' -> skip lx 2; Token.Ge
           | '>' -> skip lx 2; Token.Shr
           | _ -> one_char lx Token.Gt)
        | '=' -> two_char lx '=' Token.Eq_eq Token.Assign
        | '?' -> one_char lx Token.Question
        | ':' -> one_char lx Token.Colon
        | c -> error lx.line "unexpected character '%c'" c
      in
      lx.tok_line <- lx.line;
      tok

let rec drain lx = if next lx != Token.Eof then drain lx

let tokenize ?first_line source =
  let lx = create ?first_line source in
  let rec collect toks lines =
    let tok = next lx in
    let toks = tok :: toks and lines = lx.tok_line :: lines in
    if tok == Token.Eof then (toks, lines) else collect toks lines
  in
  let toks, lines = collect [] [] in
  {
    tokens = Array.of_list (List.rev toks);
    lines = Array.of_list (List.rev lines);
    tags = tags lx;
  }
