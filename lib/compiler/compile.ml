exception Error of string

let fail stage msg line =
  raise (Error (Printf.sprintf "%s error at line %d: %s" stage line msg))

type compiled = {
  program : Program.t;
  tags : (string * int) list;  (* //@tag name -> source line *)
}

(* Compile a MiniC source string, together with the runtime prelude, into an
   executable program image. [level] picks the optimization pipeline
   (default [O0]); [dump] observes each
   executed pass's pretty-printed output. *)
let compile ?(options = Codegen.default_options) ?level ?dump source =
  try
    let user, tags = Parser.parse_string source in
    let prelude, _ =
      Parser.parse_string ~first_line:Prelude.first_line Prelude.source
    in
    let tp = Typecheck.check ~user ~prelude ~tags in
    { program = Codegen.generate ~options ?level ?dump tp; tags }
  with
  | Lexer.Error (msg, line) -> fail "lex" msg line
  | Parser.Error (msg, line) -> fail "parse" msg line
  | Typecheck.Error (msg, line) -> fail "type" msg line
  | Codegen.Error (msg, line) -> fail "codegen" msg line

(* Source line named by a //@tag marker. *)
let tag_line compiled name =
  match List.assoc_opt name compiled.tags with
  | Some line -> line
  | None -> raise (Error (Printf.sprintf "unknown source tag '%s'" name))
