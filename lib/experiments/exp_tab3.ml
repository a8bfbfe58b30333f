(* Table 3 — applications and bugs evaluated. *)

let tools_for (workload : Workload.t) =
  let kinds =
    List.sort_uniq compare
      (List.map (fun b -> b.Bug.kind) workload.Workload.bugs)
  in
  String.concat " and "
    (List.map
       (function
         | Bug.Memory -> "CCured and iWatcher"
         | Bug.Semantic -> "Assertions")
       kinds)

let run ctx =
  Exp_common.heading ctx "Table 3: Applications and bugs evaluated";
  let rows =
    List.map
      (fun (workload : Workload.t) ->
        [
          workload.Workload.name;
          string_of_int (Workload.loc workload);
          string_of_int (Workload.bug_count workload);
          tools_for workload;
        ])
      Registry.buggy_apps
  in
  let total =
    [ "total"; ""; string_of_int Registry.total_bugs; "" ]
  in
  Exp_common.table ctx
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
    ~header:[ "Application"; "LOC"; "#Bugs"; "Detection Tool" ]
    (rows @ [ total ])
