(* Section 7.3 (reconstructed) — cumulative coverage over multiple inputs:
   50 randomly generated test cases per application (the Siemens suites and
   bc get generated cases, as in the paper), unioning branch coverage across
   runs. The paper reports a 19% average improvement after 50 inputs. *)

let checkpoints = [ 1; 5; 10; 25; 50 ]

let cumulative ctx ?(inputs = 50) ?(seed = 7) (workload : Workload.t) =
  let rng = Rng.create seed in
  let compiled = Exp_common.compile ctx workload in
  let acc = Coverage.create compiled.Compile.program in
  let at = Hashtbl.create 8 in
  for i = 1 to inputs do
    let input =
      if i = 1 then workload.Workload.default_input
      else workload.Workload.gen_input rng
    in
    let machine = Machine.create ~input compiled.Compile.program in
    let result =
      Exp_common.engine ctx ~config:(Workload.pe_config workload) machine
    in
    Coverage.merge_into ~dst:acc result.Engine.coverage;
    if List.mem i checkpoints then
      Hashtbl.replace at i (Coverage.taken_pct acc, Coverage.combined_pct acc)
  done;
  at

let run ?(inputs = 50) ctx =
  Exp_common.heading ctx
    (Printf.sprintf
       "Cumulative coverage (Section 7.3): %d generated inputs per application"
       inputs);
  let apps =
    [
      Registry.print_tokens;
      Registry.print_tokens2;
      Registry.schedule;
      Registry.schedule2;
      Registry.bc;
    ]
  in
  let gains = ref [] in
  (* one worker per application; each app's 50-input loop is inherently
     serial (it accumulates one coverage union) *)
  let results =
    Exp_common.par_map ctx
      (fun (w : Workload.t) -> (w, cumulative ctx ~inputs w))
      apps
  in
  List.iter
    (fun ((workload : Workload.t), at) ->
      let cells =
        List.concat_map
          (fun cp ->
            match Hashtbl.find_opt at cp with
            | Some (base, pe) -> [ Table.fpct base; Table.fpct pe ]
            | None -> [ "-"; "-" ])
          checkpoints
      in
      (match Hashtbl.find_opt at inputs with
       | Some (base, pe) -> gains := (pe -. base) :: !gains
       | None -> ());
      Exp_common.table ctx
        ~header:
          ("inputs"
          :: List.concat_map
               (fun cp -> [ Printf.sprintf "%d base" cp; Printf.sprintf "%d PE" cp ])
               checkpoints)
        [ workload.Workload.name :: cells ];
      Exp_common.print ctx "\n")
    results;
  Exp_common.printf ctx "Average cumulative improvement after %d inputs: %s\n"
    inputs
    (Table.fpct (Stats.mean !gains))
