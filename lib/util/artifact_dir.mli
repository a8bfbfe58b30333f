(** The one writer behind every per-run artifact directory ([--trace-dir],
    [--obs-dir]): one file per [(label, content)] pair. *)

(** [save ~dir ~prefix ~ext ~newline artifacts] creates [dir] if missing
    and writes each pair to [<prefix>-NNNN-<label>.<ext>] ([label] reduced
    to [[A-Za-z0-9._-]]), appending ["\n"] to the content when [newline].
    Files are numbered in (label, content) order, so the same artifacts
    name the same bytes identically whatever order they were produced in.
    Returns the paths written, in that order. *)
val save :
  dir:string ->
  prefix:string ->
  ext:string ->
  newline:bool ->
  (string * string) list ->
  string list
