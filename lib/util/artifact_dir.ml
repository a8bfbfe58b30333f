(* One file per (label, content) artifact. Parallel sweeps produce
   artifacts in nondeterministic order, so files are numbered after sorting
   by (label, content): identical sweeps name identical bytes identically,
   serial or [--jobs N], live or replayed from the result cache. *)

let sanitize_label label =
  let buf = Buffer.create (String.length label) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' ->
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    label;
  if Buffer.length buf = 0 then "run" else Buffer.contents buf

(* [Sys.file_exists] is false for a path under a regular file, so the
   walk up stops at the first existing ancestor, which must be a directory. *)
let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": Not a directory"))
  end
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir ->
      (* created concurrently by another writer *) ()
  end

let save ~dir ~prefix ~ext ~newline artifacts =
  mkdir_p dir;
  List.mapi
    (fun i (label, content) ->
      let file =
        Filename.concat dir
          (Printf.sprintf "%s-%04d-%s.%s" prefix i (sanitize_label label) ext)
      in
      let oc = open_out file in
      output_string oc content;
      if newline then output_char oc '\n';
      close_out oc;
      file)
    (List.sort compare artifacts)
