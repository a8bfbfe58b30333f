(* Register allocation (O2): promote hot never-address-taken scalar locals
   (and parameters) out of the frame into machine registers, rewriting their
   storage to [Tast.Reg] for instruction selection to honor.

   The register file is shared with the expression-temporary stack, so the
   pool for a function is exactly the temporaries selection provably never
   touches: [Instr_select.probe_tmp_highwater] runs a throwaway selection of
   the unpromoted program at the same level and reports each function's
   temp high-water mark; indices from the mark up to t16 are free (t17 stays
   the fix scratch), plus r1, which the software convention leaves unused.
   Promotion only ever lowers temp pressure — promoted reads borrow the
   register instead of allocating a copy — so the probe is a sound bound.

   Candidates are ranked by a static use count weighted by loop depth
   (×8 per level, capped at two levels), ties broken by frame offset in
   declaration order; everything is deterministic. Aggregates, globals and
   any variable whose address is taken stay in memory. *)

(* r1: defined by the ISA but given no role by the software convention
   (r0 = zero, r2 = rv, a0.. from r3), so it is free for allocation. *)
let spare_reg : Reg.t = 1

let loop_weight depth = match depth with 0 -> 1 | 1 -> 8 | _ -> 64

type cand = { mutable score : int }

let collect_candidates (f : Tast.tfunc) =
  let cands : (int, cand) Hashtbl.t = Hashtbl.create 16 in
  let banned = Hashtbl.create 8 in
  let note ?(weight = 1) vr =
    match (vr.Tast.vr_storage, vr.Tast.vr_ty) with
    | Tast.Local off, (Ast.Tint | Ast.Tptr _) ->
      (match Hashtbl.find_opt cands off with
       | Some c -> c.score <- c.score + weight
       | None -> Hashtbl.replace cands off { score = weight })
    | _ -> ()
  in
  let ban vr =
    match vr.Tast.vr_storage with
    | Tast.Local off -> Hashtbl.replace banned off ()
    | _ -> ()
  in
  let rec expr depth (e : Tast.texpr) =
    let w = loop_weight depth in
    match e.Tast.tdesc with
    | Tast.Tint_lit _ | Tast.Tstr_addr _ -> ()
    | Tast.Tvar vr -> note ~weight:w vr
    | Tast.Taddr { Tast.tdesc = Tast.Tvar vr; _ } -> ban vr
    | Tast.Tunop (_, a) | Tast.Tderef a | Tast.Taddr a | Tast.Tfield (a, _)
    | Tast.Tarrow (a, _) ->
      expr depth a
    | Tast.Tbinop (_, a, b)
    | Tast.Tptr_add (a, b, _)
    | Tast.Tptr_diff (a, b, _)
    | Tast.Tassign (a, b)
    | Tast.Tindex (a, b, _) ->
      expr depth a;
      expr depth b
    | Tast.Tcall_fn (_, args) | Tast.Tcall_builtin (_, args) ->
      List.iter (expr depth) args
    | Tast.Tcond (a, b, c) ->
      expr depth a;
      expr depth b;
      expr depth c
  in
  let rec stmt depth (s : Tast.tstmt) =
    match s.Tast.tsdesc with
    | Tast.TSexpr e | Tast.TSassert e -> expr depth e
    | Tast.TSif (c, a, b) ->
      expr depth c;
      List.iter (stmt depth) a;
      List.iter (stmt depth) b
    | Tast.TSwhile (c, body) ->
      expr (depth + 1) c;
      List.iter (stmt (depth + 1)) body
    | Tast.TSfor (init, cond, step, body) ->
      Option.iter (expr depth) init;
      Option.iter (expr (depth + 1)) cond;
      Option.iter (expr (depth + 1)) step;
      List.iter (stmt (depth + 1)) body
    | Tast.TSreturn e -> Option.iter (expr depth) e
    | Tast.TSbreak | Tast.TScontinue -> ()
    | Tast.TSblock body -> List.iter (stmt depth) body
  in
  List.iter (fun vr -> note vr) f.Tast.tf_params;
  List.iter (stmt 0) f.Tast.tf_body;
  Hashtbl.fold
    (fun off c acc ->
      if Hashtbl.mem banned off then acc else (off, c.score) :: acc)
    cands []
  (* score descending; ties in declaration order (offsets descend from -1) *)
  |> List.sort (fun (o1, s1) (o2, s2) ->
         if s1 <> s2 then compare s2 s1 else compare o2 o1)

let alloc_func ~highwater (f : Tast.tfunc) =
  let hw =
    match Hashtbl.find_opt highwater f.Tast.tf_name with
    | Some hw -> hw
    | None -> Instr_select.expr_tmps  (* unknown: no free temps assumed *)
  in
  (* free pool, best (highest, least constraining) first *)
  let pool =
    spare_reg
    :: List.init
         (max 0 (Instr_select.expr_tmps - hw))
         (fun i -> Reg.tmp (Instr_select.expr_tmps - 1 - i))
  in
  let cands = collect_candidates f in
  let assign =
    let rec pair cands pool =
      match (cands, pool) with
      | (off, _) :: cs, r :: rs -> (off, r) :: pair cs rs
      | _, [] | [], _ -> []
    in
    pair cands pool
  in
  if assign = [] then f
  else
    Tast_map.map_func
      (fun vr ->
        match vr.Tast.vr_storage with
        | Tast.Local off ->
          (match List.assoc_opt off assign with
           | Some r -> { vr with Tast.vr_storage = Tast.Reg r }
           | None -> vr)
        | _ -> vr)
      f

let run ~options ~level (tp : Tast.tprogram) =
  let highwater = Hashtbl.create 64 in
  List.iter
    (fun (name, hw) ->
      if not (Hashtbl.mem highwater name) then Hashtbl.add highwater name hw)
    (Instr_select.probe_tmp_highwater ~options ~level tp);
  { tp with Tast.tp_funcs = List.map (alloc_func ~highwater) tp.Tast.tp_funcs }
