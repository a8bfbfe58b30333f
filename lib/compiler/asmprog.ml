(* Label-form assembly: the IR between instruction selection and the final
   executable image. Control targets in [code] are label references encoded
   as [-(label + 1)] ([lref]); [labels] maps label ids to pcs. All the
   pc-keyed side tables the final [Program.t] needs travel with the code so
   asm-level passes (jump threading, jump-to-next compaction) can remap them
   alongside the instructions. *)

type t = {
  code : Insn.t array;
  labels : int array;  (* label id -> pc, -1 for a label never placed *)
  sites : Site.t array;
  user_branches : int list;  (* ascending pcs *)
  functions : (string * int) list;  (* in emission order *)
  user_ranges : (int * int) list;
  fix_atoms : (int * Fix_atom.t) list;  (* keyed by branch pc, ascending *)
  source_lines : (int * int) list;  (* pc -> source line, ascending pcs *)
}

let lref l = -(l + 1)

let label_of_ref t = if t >= 0 then None else Some (-t - 1)

(* Pretty-print with symbolic labels ("Ln") still unresolved, one
   instruction per line, prefixed by its pc. Labels placed at a pc are shown
   as "Ln:" lines; function starts are annotated. *)
let to_string ap =
  let buf = Buffer.create 4096 in
  (* the labels placed at each pc, ascending *)
  let labels_at = Array.make (Array.length ap.code + 1) [] in
  for l = Array.length ap.labels - 1 downto 0 do
    let pc = ap.labels.(l) in
    if pc >= 0 then labels_at.(pc) <- l :: labels_at.(pc)
  done;
  let fn_at = Hashtbl.create 16 in
  List.iter (fun (name, pc) -> Hashtbl.replace fn_at pc name) ap.functions;
  let insn_str insn =
    (* [Insn.to_string] prints raw targets; rewrite label refs to "Ln". *)
    let rec target_suffix = function
      | Insn.Br (_, _, _, t) | Insn.Jmp t | Insn.Call t -> label_of_ref t
      | Insn.Pred inner -> target_suffix inner
      | _ -> None
    in
    let s = Insn.to_string insn in
    match target_suffix insn with
    | Some l ->
      (match String.rindex_opt s '@' with
       | Some i -> String.sub s 0 i ^ Printf.sprintf "L%d" l
       | None -> s)
    | None -> s
  in
  Array.iteri
    (fun pc insn ->
      (match Hashtbl.find_opt fn_at pc with
       | Some name -> Buffer.add_string buf (Printf.sprintf "%s:\n" name)
       | None -> ());
      List.iter
        (fun l -> Buffer.add_string buf (Printf.sprintf "L%d:\n" l))
        labels_at.(pc);
      Buffer.add_string buf (Printf.sprintf "%4d: %s\n" pc (insn_str insn)))
    ap.code;
  Buffer.contents buf
