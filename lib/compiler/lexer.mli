(** The MiniC lexer.

    Hand-written; tracks line numbers, handles [//] and [/* */] comments,
    string/char literals with the usual escapes, and collects [//@tag name]
    markers so workloads can name source lines robustly (bug metadata refers
    to tags, not raw line numbers).

    The parser pulls tokens one at a time with {!next}, so a compile builds
    no token list or array: each token dies young unless the AST keeps its
    payload. {!tokenize} is the whole-source view of the same lexer. *)

exception Error of string * int  (** message, line *)

(** Lexer state over one source. *)
type t

(** [create ?first_line source] starts lexing at the first character.
    [first_line] lets callers that concatenate sources (user program +
    runtime prelude) keep distinct line spaces. *)
val create : ?first_line:int -> string -> t

(** The next token; [Eof] at the end of the source, and on every call
    after that. Raises {!Error} at the first malformed token. *)
val next : t -> Token.t

(** Source line of the token {!next} last returned. *)
val line : t -> int

(** [//@tag] markers seen so far -> line, in source order; complete once
    {!next} has returned [Eof]. *)
val tags : t -> (string * int) list

(** Lex the rest of the source, raising {!Error} at its first malformed
    token. The parser calls it before reporting a syntax error, so a lexical
    error anywhere in the source wins, as when the source is lexed whole. *)
val drain : t -> unit

type result = {
  tokens : Token.t array;  (** ends with [Eof] *)
  lines : int array;  (** [lines.(i)] is the source line of [tokens.(i)] *)
  tags : (string * int) list;  (** [//@tag name] markers -> line *)
}

(** Lex a whole source into flat token and line arrays. *)
val tokenize : ?first_line:int -> string -> result
