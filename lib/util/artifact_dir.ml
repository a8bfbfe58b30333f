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

let save ~dir ~prefix ~ext ~newline artifacts =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
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
