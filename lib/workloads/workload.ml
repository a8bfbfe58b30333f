type app_class = Siemens | Spec | Open_source

type t = {
  name : string;
  descr : string;
  app_class : app_class;
  source : bug:int option -> string;
  bugs : Bug.t list;
  default_input : string;
  gen_input : Rng.t -> string;
  max_nt_path_length : int;
}

let app_class_name = function
  | Siemens -> "Siemens"
  | Spec -> "SPEC"
  | Open_source -> "open-source"

let bug_count workload = List.length workload.bugs

let find_bug workload version =
  match
    List.find_opt (fun b -> b.Bug.version = version) workload.bugs
  with
  | Some bug -> bug
  | None ->
    invalid_arg
      (Printf.sprintf "workload %s has no bug version %d" workload.name version)

(* Compile a workload, optionally with one planted bug version. Compilation
   is deterministic and the compiled image is read-only (machines never
   mutate the program), so results are memoised: experiment sweeps ask for
   the same workload×detector×bug combination over and over. The memo is a
   bounded LRU, so a sweep over arbitrarily many (source, opt) combinations
   holds at most 128 images at once instead of growing without eviction;
   a racing duplicate compile on another domain just yields a structurally
   identical image. *)
let compile_memo = Lru.create ~capacity:128

let compile ?(detector = Codegen.No_detector) ?(fixing = true)
    ?(opt = Opt.O0) ?bug workload =
  let key = (workload.name, detector, fixing, bug, opt) in
  match Lru.find compile_memo key with
  | Some compiled -> compiled
  | None ->
    let options = { Codegen.detector; fixing } in
    let compiled = Compile.compile ~options ~level:opt (workload.source ~bug) in
    Lru.add compile_memo key compiled;
    compiled

(* PathExpander configuration appropriate for this workload: the paper's
   MaxNTPathLength is 100 for the small Siemens programs and 1000 elsewhere;
   the Siemens budget is scaled to 500 for our more verbose code generator
   (EXPERIMENTS.md note 6). *)
let pe_config ?(mode = Pe_config.Standard) workload =
  {
    Pe_config.default with
    Pe_config.mode;
    max_nt_path_length = workload.max_nt_path_length;
  }

(* Source line count of the bug-free source (Table 3's LOC column). *)
let loc workload =
  let source = workload.source ~bug:None in
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 1 source
