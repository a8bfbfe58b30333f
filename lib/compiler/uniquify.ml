(* Uniquify (O1+): give every local variable of a function a name that is
   unique within the function and distinct from every global. Storage is
   already unique (typecheck never reuses a frame slot), so this pass is
   about the *printed* form: after it, [Tast_print] output parses back to a
   program with the same storage assignment even when the source shadowed
   names across block scopes. Renames use the [name__2] convention. *)

let uniquify_func ~globals (f : Tast.tfunc) =
  (* storages in first-appearance order: parameters, then body layout *)
  let order = ref [] in
  let seen = Hashtbl.create 16 in
  let note vr =
    (match vr.Tast.vr_storage with
     | Tast.Local _ | Tast.Reg _ ->
       if not (Hashtbl.mem seen vr.Tast.vr_storage) then begin
         Hashtbl.replace seen vr.Tast.vr_storage ();
         order := (vr.Tast.vr_storage, vr.Tast.vr_name) :: !order
       end
     | Tast.Global _ -> ());
    vr
  in
  List.iter (fun vr -> ignore (note vr)) f.Tast.tf_params;
  ignore (Tast_map.map_func note f);
  (* names taken: every global, plus the locals this function has named *)
  let chosen = Hashtbl.create 16 in
  let used name = Hashtbl.mem globals name || Hashtbl.mem chosen name in
  let rename = Hashtbl.create 16 in
  List.iter
    (fun (storage, name) ->
      let final =
        if not (used name) then name
        else
          let rec next i =
            let cand = Printf.sprintf "%s__%d" name i in
            if used cand then next (i + 1) else cand
          in
          next 2
      in
      Hashtbl.replace chosen final ();
      Hashtbl.replace rename storage final)
    (List.rev !order);
  Tast_map.map_func
    (fun vr ->
      match vr.Tast.vr_storage with
      | Tast.Local _ | Tast.Reg _ ->
        { vr with Tast.vr_name = Hashtbl.find rename vr.Tast.vr_storage }
      | Tast.Global _ -> vr)
    f

let run (tp : Tast.tprogram) =
  let globals = Hashtbl.create 64 in
  List.iter (fun (g, _) -> Hashtbl.replace globals g ()) tp.Tast.tp_global_vars;
  { tp with Tast.tp_funcs = List.map (uniquify_func ~globals) tp.Tast.tp_funcs }
