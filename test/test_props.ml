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

let prop_write_log_rollback_is_identity =
  QCheck.Test.make ~name:"write-log rollback restores memory" ~count:200
    writes_arb (fun writes ->
      let mem = fresh_mem () in
      List.iteri (fun i (a, _) -> Memory.write mem a (i * 3)) writes;
      let snapshot = contents mem in
      let sb = Context.make_write_log_sandbox ~path_id:1 in
      List.iter (fun (a, v) -> ignore (Context.sandbox_write sb mem a v)) writes;
      Context.rollback_write_log sb mem;
      snapshot = contents mem)

let prop_sandboxes_agree =
  QCheck.Test.make ~name:"overlay and write-log sandboxes read identically"
    ~count:200 writes_arb (fun writes ->
      let mem_a = fresh_mem () in
      let mem_b = fresh_mem () in
      let overlay =
        Context.make_sandbox ~path_id:1 ~line_limit:10_000 ~words_per_line:8
      in
      let log = Context.make_write_log_sandbox ~path_id:1 in
      let cache = Cache.create ~size_kb:1 ~assoc:2 ~line_bytes:32 in
      let ctx_a = Context.create ~l1:cache ~pc:0 ~sp:0 in
      let ctx_b = Context.create ~l1:cache ~pc:0 ~sp:0 in
      Context.enter_sandbox ctx_a overlay;
      Context.enter_sandbox ctx_b log;
      List.iter
        (fun (a, v) ->
          ignore (Context.sandbox_write overlay mem_a a v);
          ignore (Context.sandbox_write log mem_b a v))
        writes;
      List.for_all
        (fun (a, _) -> Context.read_mem ctx_a mem_a a = Context.read_mem ctx_b mem_b a)
        writes)

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
      match (Cpu.run_baseline machine).Cpu.outcome with
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
      prop_write_log_rollback_is_identity;
      prop_sandboxes_agree;
      prop_compiled_arith_matches_reference;
      prop_parser_round_trip;
      prop_coverage_merge_monotone;
      prop_boundary_value_satisfies;
      prop_pe_preserves_output;
    ]
