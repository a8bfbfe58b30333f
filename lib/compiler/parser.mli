(** Recursive-descent parser for MiniC.

    Standard C precedence; functions may be used before their definition
    (the typechecker collects signatures in a first pass), so prototypes do
    not exist. Struct definitions, global variables (with integer, string
    or list initialisers) and functions are the top-level forms. Tokens are
    pulled from {!Lexer.next} as the parse needs them. *)

exception Error of string * int  (** message, line *)

(** Lex and parse; also returns the source's [//@tag] map.
    [first_line] as in {!Lexer.create}. *)
val parse_string : ?first_line:int -> string -> Ast.program * (string * int) list
