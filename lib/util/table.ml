(* ASCII table renderer used by the experiment harness to print paper-style
   tables. Column widths adapt to the widest cell. *)

type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let widths header rows =
  let ncols = List.length header in
  let of_row row = List.map String.length row in
  let max2 = List.map2 max in
  let check row =
    if List.length row <> ncols then
      invalid_arg "Table.render: row arity differs from header"
  in
  List.iter check rows;
  List.fold_left (fun acc row -> max2 acc (of_row row)) (of_row header) rows

let rule widths =
  "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"

let render_row aligns widths row =
  let cells = List.map2 (fun (a, w) s -> " " ^ pad a w s ^ " ")
      (List.combine aligns widths) row in
  "|" ^ String.concat "|" cells ^ "|"

let render ?(aligns = []) ~header rows =
  let ncols = List.length header in
  let aligns =
    if aligns = [] then List.init ncols (fun _ -> Left)
    else if List.length aligns = ncols then aligns
    else invalid_arg "Table.render: aligns arity differs from header"
  in
  let ws = widths header rows in
  let r = rule ws in
  let lines =
    (r :: render_row aligns ws header :: r
     :: List.map (render_row aligns ws) rows)
    @ [ r ]
  in
  String.concat "\n" lines

let fpct x = Printf.sprintf "%.1f%%" x

let f1 x = Printf.sprintf "%.1f" x

let f2 x = Printf.sprintf "%.2f" x

let int = string_of_int
