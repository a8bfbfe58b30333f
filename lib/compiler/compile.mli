(** The compiler front door: MiniC source to an executable program image. *)

(** Any front-end failure (lex, parse, type, codegen), with stage and line
    folded into the message. *)
exception Error of string

type compiled = {
  program : Program.t;
  tags : (string * int) list;  (** [//@tag name] -> source line *)
}

(** Compile a MiniC source string together with the runtime prelude.
    [options] selects the detector instrumentation and whether the
    consistency-fixing stubs are emitted (defaults: no detector, fixing
    on). [level] selects the optimization pipeline, defaulting to [O0];
    [dump] observes each executed pass's pretty-printed output (see
    {!Pipeline.run}). *)
val compile :
  ?options:Codegen.options ->
  ?level:Opt.level ->
  ?dump:(string -> string -> unit) ->
  string ->
  compiled

(** Source line named by a [//@tag] marker; raises {!Error} when absent. *)
val tag_line : compiled -> string -> int
