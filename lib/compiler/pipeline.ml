(* The nanopass pipeline driver: a named sequence of IR→IR passes from the
   typed AST down to the executable image, gated by optimization level.

     tast:  desugar → uniquify → fold-const → dce → remove-unused-defs   (O1+)
            → regalloc                                                   (O2)
     asm:   instr-select (always) → jump-opt                             (O1+)
            → lower (always)

   [O0] runs selection and lowering only and is byte-identical to the
   historical single-pass code generator. Every pass has a pretty-printed
   form surfaced through the [dump] hook ([--dump-pass NAME] on bin/pexp):
   tast passes render as annotated MiniC, assembly passes as label-form
   assembly, lowering as a disassembly of the final image. *)

let tast_passes ~options ~level =
  [
    ("desugar", Desugar.run, Opt.O1);
    ("uniquify", Uniquify.run, Opt.O1);
    ("fold-const", Fold_const.run, Opt.O1);
    ("dce", Dce.run, Opt.O1);
    ("remove-unused-defs", Unused_defs.run, Opt.O1);
    ("regalloc", Regalloc.run ~options ~level, Opt.O2);
  ]

let pass_names =
  [
    "desugar";
    "uniquify";
    "fold-const";
    "dce";
    "remove-unused-defs";
    "regalloc";
    "instr-select";
    "jump-opt";
    "lower";
  ]

let run ?(options = Instr_select.default_options) ?(level = Opt.O0)
    ?(dump : (string -> string -> unit) option) (tp : Tast.tprogram) : Program.t
    =
  let emit_dump name render =
    match dump with Some f -> f name (render ()) | None -> ()
  in
  let tp =
    List.fold_left
      (fun tp (name, pass, floor) ->
        if Opt.at_least level floor then begin
          let tp = pass tp in
          emit_dump name (fun () -> Tast_print.program_to_string ~annotate:true tp);
          tp
        end
        else tp)
      tp
      (tast_passes ~options ~level)
  in
  let ap = Instr_select.select ~options ~level tp in
  emit_dump "instr-select" (fun () -> Asmprog.to_string ap);
  let ap =
    if Opt.at_least level Opt.O1 then begin
      let ap = Jump_opt.run ap in
      emit_dump "jump-opt" (fun () -> Asmprog.to_string ap);
      ap
    end
    else ap
  in
  let program = Lower.run ap tp in
  emit_dump "lower" (fun () -> Program.disassemble program);
  program
