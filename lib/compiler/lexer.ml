exception Error of string * int

type result = {
  tokens : (Token.t * int) array;
  tags : (string * int) list;  (* //@tag name -> line *)
}

let error line fmt = Printf.ksprintf (fun s -> raise (Error (s, line))) fmt

let keyword_of_string = function
  | "int" -> Some Token.Kw_int
  | "char" -> Some Token.Kw_char
  | "void" -> Some Token.Kw_void
  | "struct" -> Some Token.Kw_struct
  | "if" -> Some Token.Kw_if
  | "else" -> Some Token.Kw_else
  | "while" -> Some Token.Kw_while
  | "for" -> Some Token.Kw_for
  | "return" -> Some Token.Kw_return
  | "break" -> Some Token.Kw_break
  | "continue" -> Some Token.Kw_continue
  | "sizeof" -> Some Token.Kw_sizeof
  | "assert" -> Some Token.Kw_assert
  | "NULL" -> Some Token.Kw_null
  | _ -> None

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

(* [tokenize ?first_line source] lexes MiniC. [first_line] lets callers that
   concatenate sources (user program + runtime prelude) keep distinct line
   spaces. *)
let tokenize ?(first_line = 1) source =
  let n = String.length source in
  let tokens = ref [] in
  let tags = ref [] in
  let line = ref first_line in
  let pos = ref 0 in
  let peek k = if !pos + k < n then Some source.[!pos + k] else None in
  let emit tok = tokens := (tok, !line) :: !tokens in
  let advance () = incr pos in
  let read_line_comment () =
    (* Capture //@tag markers so workloads can name source lines robustly. *)
    let start = !pos in
    while !pos < n && source.[!pos] <> '\n' do
      advance ()
    done;
    let text = String.sub source start (!pos - start) in
    let prefix = "@tag " in
    let plen = String.length prefix in
    if String.length text >= plen && String.sub text 0 plen = prefix then begin
      let name = String.trim (String.sub text plen (String.length text - plen)) in
      if name <> "" then tags := (name, !line) :: !tags
    end
  in
  let read_block_comment () =
    let closed = ref false in
    while (not !closed) && !pos < n do
      (match (source.[!pos], peek 1) with
       | '*', Some '/' ->
         advance ();
         advance ();
         closed := true
       | '\n', _ ->
         incr line;
         advance ()
       | _ -> advance ())
    done;
    if not !closed then error !line "unterminated comment"
  in
  let read_number () =
    let start = !pos in
    while !pos < n && is_digit source.[!pos] do
      advance ()
    done;
    let text = String.sub source start (!pos - start) in
    match int_of_string_opt text with
    | Some v -> emit (Token.Tok_int v)
    | None -> error !line "integer literal %s out of range" text
  in
  let read_ident () =
    let start = !pos in
    while !pos < n && is_ident_char source.[!pos] do
      advance ()
    done;
    let text = String.sub source start (!pos - start) in
    match keyword_of_string text with
    | Some kw -> emit kw
    | None -> emit (Token.Tok_ident text)
  in
  let read_string () =
    advance ();
    let buf = Buffer.create 16 in
    let closed = ref false in
    while (not !closed) && !pos < n do
      (match source.[!pos] with
       | '"' ->
         advance ();
         closed := true
       | '\\' ->
         (match peek 1 with
          | Some c ->
            Buffer.add_char buf (escape_char !line c);
            advance ();
            advance ()
          | None -> error !line "dangling backslash")
       | '\n' -> error !line "newline in string literal"
       | c ->
         Buffer.add_char buf c;
         advance ())
    done;
    if not !closed then error !line "unterminated string literal";
    emit (Token.Tok_string (Buffer.contents buf))
  in
  let read_char_literal () =
    advance ();
    let c =
      match peek 0 with
      | Some '\\' ->
        (match peek 1 with
         | Some esc ->
           advance ();
           escape_char !line esc
         | None -> error !line "dangling backslash")
      | Some c -> c
      | None -> error !line "unterminated character literal"
    in
    advance ();
    (match peek 0 with
     | Some '\'' -> advance ()
     | _ -> error !line "unterminated character literal");
    emit (Token.Tok_int (Char.code c))
  in
  let two_char b tok fallback =
    if peek 1 = Some b then begin
      emit tok;
      advance ();
      advance ()
    end
    else begin
      emit fallback;
      advance ()
    end
  in
  while !pos < n do
    match source.[!pos] with
    | ' ' | '\t' | '\r' -> advance ()
    | '\n' ->
      incr line;
      advance ()
    | '/' ->
      (match peek 1 with
       | Some '/' ->
         advance ();
         advance ();
         read_line_comment ()
       | Some '*' ->
         advance ();
         advance ();
         read_block_comment ()
       | _ ->
         emit Token.Slash;
         advance ())
    | c when is_digit c -> read_number ()
    | c when is_ident_start c -> read_ident ()
    | '"' -> read_string ()
    | '\'' -> read_char_literal ()
    | '(' ->
      emit Token.Lparen;
      advance ()
    | ')' ->
      emit Token.Rparen;
      advance ()
    | '{' ->
      emit Token.Lbrace;
      advance ()
    | '}' ->
      emit Token.Rbrace;
      advance ()
    | '[' ->
      emit Token.Lbracket;
      advance ()
    | ']' ->
      emit Token.Rbracket;
      advance ()
    | ';' ->
      emit Token.Semi;
      advance ()
    | ',' ->
      emit Token.Comma;
      advance ()
    | '.' ->
      emit Token.Dot;
      advance ()
    | '+' ->
      emit Token.Plus;
      advance ()
    | '-' -> two_char '>' Token.Arrow Token.Minus
    | '*' ->
      emit Token.Star;
      advance ()
    | '%' ->
      emit Token.Percent;
      advance ()
    | '&' -> two_char '&' Token.Amp_amp Token.Amp
    | '|' -> two_char '|' Token.Pipe_pipe Token.Pipe
    | '^' ->
      emit Token.Caret;
      advance ()
    | '~' ->
      emit Token.Tilde;
      advance ()
    | '!' -> two_char '=' Token.Bang_eq Token.Bang
    | '<' ->
      (match peek 1 with
       | Some '=' ->
         emit Token.Le;
         advance ();
         advance ()
       | Some '<' ->
         emit Token.Shl;
         advance ();
         advance ()
       | _ ->
         emit Token.Lt;
         advance ())
    | '>' ->
      (match peek 1 with
       | Some '=' ->
         emit Token.Ge;
         advance ();
         advance ()
       | Some '>' ->
         emit Token.Shr;
         advance ();
         advance ()
       | _ ->
         emit Token.Gt;
         advance ())
    | '=' -> two_char '=' Token.Eq_eq Token.Assign
    | '?' ->
      emit Token.Question;
      advance ()
    | ':' ->
      emit Token.Colon;
      advance ()
    | c -> error !line "unexpected character '%c'" c
  done;
  emit Token.Eof;
  { tokens = Array.of_list (List.rev !tokens); tags = List.rev !tags }
