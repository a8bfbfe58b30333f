(* Hand-rolled JSON helpers shared by the telemetry sink, the NT-Path
   trace and the observatory: deterministic emission (stable key order is
   the caller's job) and a small strict parser used to validate emitted
   traces in tests and CI without pulling in a JSON dependency. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ escape s ^ "\""

let jfloat x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.6g" x

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let jarr items = "[" ^ String.concat "," items ^ "]"

(* ---- Parsing ------------------------------------------------------------ *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> error cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur lit value =
  if
    cur.pos + String.length lit <= String.length cur.text
    && String.sub cur.text cur.pos (String.length lit) = lit
  then begin
    cur.pos <- cur.pos + String.length lit;
    value
  end
  else error cur (Printf.sprintf "expected '%s'" lit)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Encode a BMP codepoint as UTF-8 (surrogate pairs are not recombined;
   escaped traces only ever contain control characters here). *)
let add_codepoint buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' ->
      advance cur;
      Buffer.contents buf
    | Some '\\' ->
      advance cur;
      (match peek cur with
       | Some '"' -> Buffer.add_char buf '"'; advance cur
       | Some '\\' -> Buffer.add_char buf '\\'; advance cur
       | Some '/' -> Buffer.add_char buf '/'; advance cur
       | Some 'n' -> Buffer.add_char buf '\n'; advance cur
       | Some 't' -> Buffer.add_char buf '\t'; advance cur
       | Some 'r' -> Buffer.add_char buf '\r'; advance cur
       | Some 'b' -> Buffer.add_char buf '\b'; advance cur
       | Some 'f' -> Buffer.add_char buf '\012'; advance cur
       | Some 'u' ->
         advance cur;
         let cp = ref 0 in
         for _ = 1 to 4 do
           match peek cur with
           | Some c when hex_digit c >= 0 ->
             cp := (!cp * 16) + hex_digit c;
             advance cur
           | _ -> error cur "bad \\u escape"
         done;
         add_codepoint buf !cp
       | _ -> error cur "bad escape");
      go ()
    | Some c when Char.code c < 0x20 -> error cur "raw control character"
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let consume_while f =
    let rec go () =
      match peek cur with Some c when f c -> advance cur; go () | _ -> ()
    in
    go ()
  in
  (match peek cur with Some '-' -> advance cur | _ -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek cur with
   | Some '.' ->
     advance cur;
     consume_while (function '0' .. '9' -> true | _ -> false)
   | _ -> ());
  (match peek cur with
   | Some ('e' | 'E') ->
     advance cur;
     (match peek cur with Some ('+' | '-') -> advance cur | _ -> ());
     consume_while (function '0' .. '9' -> true | _ -> false)
   | _ -> ());
  let s = String.sub cur.text start (cur.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> error cur "bad number"

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members ((k, v) :: acc)
        | Some '}' ->
          advance cur;
          Obj (List.rev ((k, v) :: acc))
        | _ -> error cur "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          Arr (List.rev (v :: acc))
        | _ -> error cur "expected ',' or ']'"
      in
      items []
    end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some 'n' -> parse_literal cur "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number cur)
  | Some c -> error cur (Printf.sprintf "unexpected '%c'" c)

let parse s =
  let cur = { text = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then Error "trailing garbage"
    else Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
