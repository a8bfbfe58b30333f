(* Final lowering: resolve the symbolic label references of an [Asmprog.t]
   to absolute pcs and package the executable [Program.t] with the
   program-level metadata carried by the typed program. The result is
   validated before being returned. *)

let run (ap : Asmprog.t) (tp : Tast.tprogram) : Program.t =
  let resolve_target t =
    if t >= 0 then t
    else
      match Hashtbl.find ap.Asmprog.labels (-t - 1) with
      | target_pc -> target_pc
      | exception Not_found -> invalid_arg "Lower: unplaced label"
  in
  (* The image's arrays are filled in place, not built by [Array.map] or
     [Array.of_list]: an array too big for the minor heap whose initial
     element is young makes [Array.make] force a minor collection, which
     would promote the whole compile's live data. *)
  let code = Array.make (Array.length ap.Asmprog.code) Insn.Nop in
  Array.iteri
    (fun pc insn ->
      code.(pc) <-
        (match insn with
         | Insn.Br (c, rs, rt, t) -> Insn.Br (c, rs, rt, resolve_target t)
         | Insn.Jmp t -> Insn.Jmp (resolve_target t)
         | Insn.Call t -> Insn.Call (resolve_target t)
         | _ -> insn))
    ap.Asmprog.code;
  let source_lines =
    Array.make (List.length ap.Asmprog.source_lines) (0, 0)
  in
  List.iteri (fun i entry -> source_lines.(i) <- entry) ap.Asmprog.source_lines;
  let program =
    {
      Program.code;
      entry = 0;
      globals_words = tp.Tast.tp_globals_words;
      init_data = tp.Tast.tp_init_data;
      sites = ap.Asmprog.sites;
      user_branches = ap.Asmprog.user_branches;
      functions = ap.Asmprog.functions;
      user_code_ranges = ap.Asmprog.user_ranges;
      fix_atoms = ap.Asmprog.fix_atoms;
      global_vars = tp.Tast.tp_global_vars;
      blank_addrs = tp.Tast.tp_blank_addrs;
      source_lines;
    }
  in
  Program.validate program;
  program
