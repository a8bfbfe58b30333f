(* Property-based tests (QCheck, run through alcotest): sandbox rollback is
   the identity on memory, the two sandboxing mechanisms agree, compiled
   arithmetic agrees with a reference evaluator, the parser round-trips
   pretty-printed programs, coverage is monotone, and PathExpander never
   changes program output. *)

let qtest = QCheck_alcotest.to_alcotest

(* --- sandbox properties ---------------------------------------------------- *)

let addr_gen =
  QCheck.Gen.map (fun i -> Memory.null_guard + abs i mod 500) QCheck.Gen.int

let writes_gen = QCheck.Gen.(list_size (int_bound 60) (pair addr_gen int))

let writes_arb =
  QCheck.make ~print:(fun ws ->
      String.concat ";"
        (List.map (fun (a, v) -> Printf.sprintf "(%d,%d)" a v) ws))
    writes_gen

let fresh_mem () = Memory.create ~globals_words:600 ~heap_words:64 ~stack_words:64

(* Every accessible word, in address order. *)
let contents mem =
  Array.init (Memory.size mem - Memory.null_guard) (fun i ->
      Memory.read mem (Memory.null_guard + i))

let prop_overlay_discard_is_identity =
  QCheck.Test.make ~name:"overlay discard leaves memory intact" ~count:200
    writes_arb (fun writes ->
      let mem = fresh_mem () in
      List.iteri (fun i (a, _) -> Memory.write mem a i) writes;
      let snapshot = contents mem in
      let sb = Context.make_sandbox ~path_id:1 ~line_limit:10_000 ~words_per_line:8 in
      List.iter (fun (a, v) -> ignore (Context.sandbox_write sb mem a v)) writes;
      snapshot = contents mem)

(* --- compiled arithmetic vs reference evaluator ----------------------------- *)

type aexpr =
  | Num of int
  | Add of aexpr * aexpr
  | Sub of aexpr * aexpr
  | Mul of aexpr * aexpr

let rec aexpr_to_string = function
  | Num n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (aexpr_to_string a) (aexpr_to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (aexpr_to_string a) (aexpr_to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (aexpr_to_string a) (aexpr_to_string b)

let rec aexpr_eval = function
  | Num n -> n
  | Add (a, b) -> aexpr_eval a + aexpr_eval b
  | Sub (a, b) -> aexpr_eval a - aexpr_eval b
  | Mul (a, b) -> aexpr_eval a * aexpr_eval b

let aexpr_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
        if n <= 1 then map (fun v -> Num (v mod 50)) small_signed_int
        else
          oneof
            [
              map (fun v -> Num (v mod 50)) small_signed_int;
              map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2));
            ]))

let aexpr_arb = QCheck.make ~print:aexpr_to_string aexpr_gen

let prop_compiled_arith_matches_reference =
  QCheck.Test.make ~name:"compiled arithmetic matches reference evaluation"
    ~count:60 aexpr_arb (fun e ->
      let source =
        Printf.sprintf "int main() { print_int(%s); return 0; }"
          (aexpr_to_string e)
      in
      let compiled = Compile.compile source in
      let machine = Machine.create compiled.Compile.program in
      match (Engine.run ~config:Pe_config.baseline machine).Engine.outcome with
      | `Halted -> Machine.output machine = string_of_int (aexpr_eval e)
      | _ -> false)

(* --- parser round trip ------------------------------------------------------ *)

let prop_parser_round_trip =
  QCheck.Test.make ~name:"pretty-print/parse round trip is a fixpoint" ~count:60
    aexpr_arb (fun e ->
      let source =
        Printf.sprintf
          "int g = 3;\nint f(int a, int b) { return a + b; }\n\
           int main() { int x = %s; if (x > g) { x = f(x, g); } return x; }"
          (aexpr_to_string e)
      in
      let once = Ast.program_to_string (fst (Parser.parse_string source)) in
      let twice = Ast.program_to_string (fst (Parser.parse_string once)) in
      once = twice)

(* --- coverage --------------------------------------------------------------- *)

let prop_coverage_merge_monotone =
  QCheck.Test.make ~name:"coverage union is monotone and bounded" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let workload = Registry.print_tokens in
      let compiled = Workload.compile workload in
      let rng = Rng.create (seed + 1) in
      let acc = Coverage.create compiled.Compile.program in
      let previous = ref 0.0 in
      let ok = ref true in
      for _ = 1 to 3 do
        let input = workload.Workload.gen_input rng in
        let machine = Machine.create ~input compiled.Compile.program in
        let result = Engine.run ~config:(Workload.pe_config workload) machine in
        Coverage.merge_into ~dst:acc result.Engine.coverage;
        let now = Coverage.combined_pct acc in
        if now < !previous -. 1e-9 || now > 100.0 then ok := false;
        previous := now
      done;
      !ok)

(* Coverage's counts and its line view against a reference built the
   direct way: plain bool arrays, the line of every pc from
   [Program.line_of_pc] and [user_code_ranges], and popcounts at every
   query. Queries fall in the middle of a sequence and recording goes on
   after them, so a count or a line view that a query left behind and a
   later record should have moved shows up as a mismatch. *)

type cov_op =
  | Taken of int * bool
  | Nt of int * bool
  | Pc of int * bool  (* pc, inside an NT-Path *)
  | Merge of cov_op list  (* records into a fresh coverage, merged in *)
  | Query

let rec cov_op_to_string = function
  | Taken (pc, d) -> Printf.sprintf "T(%d,%b)" pc d
  | Nt (pc, d) -> Printf.sprintf "N(%d,%b)" pc d
  | Pc (pc, nt) -> Printf.sprintf "P(%d,%b)" pc nt
  | Merge ops -> "M[" ^ String.concat " " (List.map cov_op_to_string ops) ^ "]"
  | Query -> "Q"

let cov_apps =
  [| Registry.print_tokens; Registry.schedule2; Registry.bc |]

let cov_programs =
  Array.map (fun w -> lazy (Workload.compile w).Compile.program) cov_apps

type ref_cov = {
  r_taken : bool array;  (* per edge 2*pc + dir *)
  r_nt : bool array;
  r_pc_taken : bool array;  (* per pc *)
  r_pc_nt : bool array;
}

let ref_create n =
  {
    r_taken = Array.make (2 * n) false;
    r_nt = Array.make (2 * n) false;
    r_pc_taken = Array.make n false;
    r_pc_nt = Array.make n false;
  }

let rec apply_cov_op program universe check cov r = function
  | Taken (pc, d) ->
    Coverage.record_taken cov pc d;
    if Hashtbl.mem universe pc then r.r_taken.((2 * pc) + Bool.to_int d) <- true
  | Nt (pc, d) ->
    Coverage.record_nt cov pc d;
    if Hashtbl.mem universe pc then r.r_nt.((2 * pc) + Bool.to_int d) <- true
  | Pc (pc, nt) ->
    Coverage.record_pc (Coverage.pc_sink cov ~nt) pc;
    (if nt then r.r_pc_nt else r.r_pc_taken).(pc) <- true
  | Merge ops ->
    let src = Coverage.create program in
    let rsrc = ref_create (Program.length program) in
    List.iter (apply_cov_op program universe check src rsrc) ops;
    Coverage.merge_into ~dst:cov src;
    let union a b = Array.iteri (fun i v -> if v then a.(i) <- true) b in
    union r.r_taken rsrc.r_taken;
    union r.r_nt rsrc.r_nt;
    union r.r_pc_taken rsrc.r_pc_taken;
    union r.r_pc_nt rsrc.r_pc_nt
  | Query -> check cov r

let cov_matches_reference (app, ops) =
  let program = Lazy.force cov_programs.(app) in
  let n = Program.length program in
  let universe = Hashtbl.create 64 in
  List.iter (fun pc -> Hashtbl.replace universe pc ()) program.Program.user_branches;
  let in_user pc =
    List.exists (fun (lo, hi) -> pc >= lo && pc < hi) program.Program.user_code_ranges
  in
  let line_of = Array.init n (fun pc -> if in_user pc then Program.line_of_pc program pc else 0) in
  let popcount a = Array.fold_left (fun k v -> if v then k + 1 else k) 0 a in
  (* distinct lines > 0 among the pcs satisfying [f] *)
  let lines f =
    let seen = Hashtbl.create 64 in
    Array.iteri (fun pc l -> if l > 0 && f pc then Hashtbl.replace seen l ()) line_of;
    Hashtbl.length seen
  in
  let expect what got want =
    if got <> want then QCheck.Test.fail_reportf "%s: got %s, want %s" what got want
  in
  let check cov r =
    let taken = popcount r.r_taken in
    let combined = popcount (Array.mapi (fun i v -> v || r.r_nt.(i)) r.r_taken) in
    let edges = 2 * Hashtbl.length universe in
    let pct num den = Printf.sprintf "%h" (Stats.pct ~num ~den) in
    let cpct x = Printf.sprintf "%h" x in
    expect "taken_edges" (string_of_int (Coverage.taken_edges cov)) (string_of_int taken);
    expect "combined_edges" (string_of_int (Coverage.combined_edges cov))
      (string_of_int combined);
    expect "edge universe" (string_of_int (Coverage.edge_universe_size cov))
      (string_of_int edges);
    expect "taken_pct" (cpct (Coverage.taken_pct cov)) (pct taken edges);
    expect "combined_pct" (cpct (Coverage.combined_pct cov)) (pct combined edges);
    let user_lines = lines (fun _ -> true) in
    expect "stmt_taken_pct" (cpct (Coverage.stmt_taken_pct cov))
      (pct (lines (fun pc -> r.r_pc_taken.(pc))) user_lines);
    let hit pc = r.r_pc_taken.(pc) || r.r_pc_nt.(pc) in
    expect "stmt_combined_pct" (cpct (Coverage.stmt_combined_pct cov))
      (pct (lines hit) user_lines);
    let covered_lines = Hashtbl.create 64 in
    Array.iteri (fun pc l -> if l > 0 && hit pc then Hashtbl.replace covered_lines l ()) line_of;
    let line_covered = Coverage.pc_line_covered cov in
    for pc = -1 to n do
      let want =
        pc >= 0 && pc < n && line_of.(pc) > 0 && Hashtbl.mem covered_lines line_of.(pc)
      in
      if line_covered pc <> want then
        expect (Printf.sprintf "pc_line_covered %d" pc) (string_of_bool (not want))
          (string_of_bool want)
    done
  in
  let r = ref_create n in
  let cov = Coverage.create program in
  List.iter (apply_cov_op program universe check cov r) ops;
  check cov r;
  true

(* Branch pcs mostly from the user universe (both directions), some from
   anywhere (runtime branches and non-branches are outside the universe);
   statement pcs anywhere in the image. *)
let cov_ops_gen =
  let open QCheck.Gen in
  int_bound (Array.length cov_apps - 1) >>= fun app ->
  let program = Lazy.force cov_programs.(app) in
  let n = Program.length program in
  let branches = Array.of_list program.Program.user_branches in
  let branch_pc =
    frequency [ (4, oneofa branches); (1, int_bound (n - 1)) ]
  in
  let record =
    frequency
      [
        (3, map2 (fun pc d -> Taken (pc, d)) branch_pc bool);
        (3, map2 (fun pc d -> Nt (pc, d)) branch_pc bool);
        (6, map2 (fun pc nt -> Pc (pc, nt)) (int_bound (n - 1)) bool);
      ]
  in
  let op =
    frequency
      [
        (12, record);
        (1, map (fun ops -> Merge ops) (list_size (int_bound 40) record));
        (1, return Query);
      ]
  in
  map (fun ops -> (app, ops)) (list_size (int_range 1 120) op)

let prop_coverage_matches_reference =
  QCheck.Test.make ~name:"coverage counts and line view match a direct reference"
    ~count:150
    (QCheck.make
       ~print:(fun (app, ops) ->
         Printf.sprintf "%s: %s" cov_apps.(app).Workload.name
           (String.concat " " (List.map cov_op_to_string ops)))
       cov_ops_gen)
    cov_matches_reference

(* --- fix boundary values ----------------------------------------------------- *)

let cmp_arb =
  QCheck.make
    ~print:(fun c -> Insn.cmp_name c)
    QCheck.Gen.(
      oneofl [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge ])

let prop_boundary_value_satisfies =
  QCheck.Test.make ~name:"boundary fix value satisfies the edge condition"
    ~count:200
    QCheck.(pair cmp_arb small_signed_int)
    (fun (cmp, k) ->
      let v = Codegen.boundary_value cmp k in
      Insn.eval_cmp cmp v k)

(* --- end-to-end: PathExpander never changes output --------------------------- *)

let prop_pe_preserves_output =
  QCheck.Test.make ~name:"PathExpander preserves program output" ~count:15
    QCheck.(small_int)
    (fun seed ->
      let workload = Registry.schedule2 in
      let compiled = Workload.compile workload in
      let input = workload.Workload.gen_input (Rng.create (seed + 13)) in
      let out mode =
        let machine = Machine.create ~input compiled.Compile.program in
        ignore (Engine.run ~config:(Workload.pe_config ~mode workload) machine);
        Machine.output machine
      in
      out Pe_config.Baseline = out Pe_config.Standard)

let tests =
  List.map qtest
    [
      prop_overlay_discard_is_identity;
      prop_compiled_arith_matches_reference;
      prop_parser_round_trip;
      prop_coverage_merge_monotone;
      prop_coverage_matches_reference;
      prop_boundary_value_satisfies;
      prop_pe_preserves_output;
    ]
