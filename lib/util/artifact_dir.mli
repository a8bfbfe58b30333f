(** Output directories: the create-with-parents helper behind every
    directory a front end writes into ([--trace-dir], [--obs-dir]), and the
    one writer of per-run artifact directories: one file per
    [(label, content)] pair. *)

(** [mkdir_p dir] creates [dir] and any missing parents (mode [0o755]); an
    existing directory is left alone. Raises [Sys_error], and nothing else,
    when a component exists but is not a directory or cannot be created. *)
val mkdir_p : string -> unit

(** [save ~dir ~prefix ~ext ~newline artifacts] creates [dir] with
    {!mkdir_p} and writes each pair to [<prefix>-NNNN-<label>.<ext>]
    ([label] reduced to [[A-Za-z0-9._-]]), appending ["\n"] to the content
    when [newline]. Files are numbered in (label, content) order, so the
    same artifacts name the same bytes identically whatever order they were
    produced in. Returns the paths written, in that order. *)
val save :
  dir:string ->
  prefix:string ->
  ext:string ->
  newline:bool ->
  (string * string) list ->
  string list
