(* Nanopass pipeline tests: every pass exercised directly, the per-pass
   pretty-printers round-tripped through the front end, and the QCheck
   differential pinning -O2 to -O0 observables on the plain CPU. *)

let typed source =
  let user, tags = Parser.parse_string source in
  let prelude, _ =
    Parser.parse_string ~first_line:Prelude.first_line Prelude.source
  in
  Typecheck.check ~user ~prelude ~tags

let printed tp = Tast_print.program_to_string tp

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains name hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: expected %S in:\n%s" name needle hay

let check_absent name hay needle =
  if contains hay needle then
    Alcotest.failf "%s: expected %S absent from:\n%s" name needle hay

(* --- the tast passes, one direct test each ------------------------------- *)

let test_desugar () =
  let tp =
    typed
      "int main() {\n\
      \  int a;\n\
      \  a = getc();\n\
      \  if (!(a < 10)) { print_int(1); } else { print_int(2); }\n\
      \  { { print_int(3); } }\n\
      \  return 0;\n\
       }\n"
  in
  let out = printed (Desugar.run tp) in
  (* the logical-not is eliminated by swapping the branches *)
  check_absent "desugar" out "!";
  check_contains "desugar" out "if ((a < 10)) {\n    print_int(2);";
  (* nested bare blocks are flattened away *)
  check_absent "desugar" out "  {\n"

let test_uniquify () =
  let tp =
    typed
      "int x = 5;\n\
       int main() {\n\
      \  int x;\n\
      \  x = 7;\n\
      \  print_int(x);\n\
      \  return 0;\n\
       }\n"
  in
  let out = printed (Uniquify.run tp) in
  (* the local shadowing the global gets a fresh name *)
  check_contains "uniquify" out "int x__2;";
  check_contains "uniquify" out "print_int(x__2)"

let test_fold_const () =
  let tp =
    typed
      "int main() {\n\
      \  print_int(2 + 3 * 4);\n\
      \  print_int(1 ? 10 : 20);\n\
      \  if (0) { print_int(99); }\n\
      \  print_int(1 / 0);\n\
      \  return 0;\n\
       }\n"
  in
  let out = printed (Fold_const.run tp) in
  check_contains "fold" out "print_int(14)";
  check_contains "fold" out "print_int(10)";
  check_absent "fold" out "print_int(99)";
  (* division by zero is a runtime fault, never folded away *)
  check_contains "fold" out "(1 / 0)"

let test_dce () =
  let tp =
    typed
      "int main() {\n\
      \  int x;\n\
      \  x = getc();\n\
      \  x + 41;\n\
      \  if (x) { } else { }\n\
      \  x = x + 1;\n\
      \  return x;\n\
       }\n"
  in
  let out = printed (Dce.run tp) in
  (* pure expression statements and the empty pure-condition if are dropped *)
  check_absent "dce" out "41";
  check_absent "dce" out "if";
  check_contains "dce" out "(x = (x + 1))"

let test_unused_defs () =
  let tp =
    typed
      "int helper(int a) { return a * 2; }\n\
       int used(int a) { return a + 1; }\n\
       int main() { print_int(used(4)); return 0; }\n"
  in
  let out = printed (Unused_defs.run tp) in
  check_absent "unused-defs" out "helper";
  check_contains "unused-defs" out "int used(int a)"

let test_regalloc () =
  let tp =
    typed
      "int main() {\n\
      \  int i;\n\
      \  int sum;\n\
      \  int arr[4];\n\
      \  int *p;\n\
      \  p = &arr[0];\n\
      \  sum = 0;\n\
      \  for (i = 0; i < 10; i = i + 1) { sum = sum + i; }\n\
      \  print_int(sum);\n\
      \  return 0;\n\
       }\n"
  in
  let tp2 =
    Regalloc.run ~options:Instr_select.default_options ~level:Opt.O2 tp
  in
  let out = Tast_print.program_to_string ~annotate:true tp2 in
  (* the hot scalars leave the frame (the annotation names their register)... *)
  check_absent "regalloc" out "int i;  // fp";
  check_absent "regalloc" out "int sum;  // fp";
  check_contains "regalloc" out "int i;  // r1";
  (* ...while the array stays in the frame (aggregate, address taken) *)
  check_contains "regalloc" out "int arr[4];  // fp"

let test_instr_select_o0_identity () =
  let source =
    "int g = 3;\n\
     int main() {\n\
    \  int i;\n\
    \  for (i = 0; i < 4; i = i + 1) { g = g + i; }\n\
    \  print_int(g);\n\
    \  return 0;\n\
     }\n"
  in
  let tp = typed source in
  let via_passes = Lower.run (Instr_select.select tp) tp in
  let via_codegen = Codegen.generate tp in
  Alcotest.(check string)
    "O0 select+lower = reference emission"
    (Program.disassemble via_codegen)
    (Program.disassemble via_passes)

let run_program program input =
  let machine = Machine.create ~input program in
  let r = Engine.run ~config:Pe_config.baseline machine in
  let outcome =
    match r.Engine.outcome with
    | `Halted -> "halted"
    | `Exited n -> Printf.sprintf "exited %d" n
    | `Faulted f -> "fault " ^ Cpu.fault_to_string f
    | `Fuel_exhausted -> "fuel"
  in
  (outcome, Machine.output machine)

let branchy_source =
  "int main() {\n\
  \  int i;\n\
  \  int acc;\n\
  \  acc = 0;\n\
  \  for (i = 0; i < 20; i = i + 1) {\n\
  \    if (i % 3 == 0) { acc = acc + i; }\n\
  \    else { if (i % 3 == 1) { acc = acc + 2; } else { acc = acc - 1; } }\n\
  \  }\n\
  \  print_int(acc);\n\
  \  return 0;\n\
   }\n"

let test_jump_opt () =
  let tp = typed branchy_source in
  let ap = Instr_select.select ~level:Opt.O1 tp in
  let opt = Jump_opt.run ap in
  let len a = Array.length a.Asmprog.code in
  if len opt >= len ap then
    Alcotest.failf "jump-opt: expected shrink, %d -> %d insns" (len ap)
      (len opt);
  let before = run_program (Lower.run ap tp) "" in
  let after = run_program (Lower.run opt tp) "" in
  Alcotest.(check (pair string string))
    "jump-opt preserves behavior" before after

let test_lower () =
  let tp = typed branchy_source in
  let program = Lower.run (Instr_select.select tp) tp in
  (* every control-flow target is a resolved, in-range pc *)
  for pc = 0 to Program.length program - 1 do
    match Program.insn program pc with
    | Insn.Br (_, _, _, t) | Insn.Jmp t | Insn.Call t ->
      if t < 0 || t >= Program.length program then
        Alcotest.failf "lower: unresolved target %d" t
    | _ -> ()
  done;
  Alcotest.(check (pair string string))
    "lowered program runs" ("halted", "71") (run_program program "")

(* --- printer round-trips -------------------------------------------------- *)

(* The tast printer emits parseable MiniC (for programs without structs,
   strings or globals, whose declarations it leaves to annotations):
   print . typecheck . parse . print is the identity on the printed form,
   after every prefix of the tast pipeline. *)
let roundtrip_source =
  "int twice(int v) { return v * 2; }\n\
   int main() {\n\
  \  int i;\n\
  \  int acc;\n\
  \  acc = 0;\n\
  \  for (i = 0; i < 6; i = i + 1) {\n\
  \    if (i % 2 == 0) { acc = acc + twice(i); } else { acc = acc - 1; }\n\
  \  }\n\
  \  while (acc > 100) { acc = acc / 2; }\n\
  \  print_int(acc);\n\
  \  return 0;\n\
   }\n"

let tast_pipeline_prefixes =
  [
    ("desugar", [ Desugar.run ]);
    ("uniquify", [ Desugar.run; Uniquify.run ]);
    ("fold-const", [ Desugar.run; Uniquify.run; Fold_const.run ]);
    ("dce", [ Desugar.run; Uniquify.run; Fold_const.run; Dce.run ]);
    ( "remove-unused-defs",
      [ Desugar.run; Uniquify.run; Fold_const.run; Dce.run; Unused_defs.run ]
    );
  ]

let test_printer_roundtrip () =
  List.iter
    (fun (name, passes) ->
      let tp =
        List.fold_left (fun tp pass -> pass tp) (typed roundtrip_source) passes
      in
      let once = printed tp in
      let again = printed (typed once) in
      Alcotest.(check string) ("round-trip after " ^ name) once again)
    tast_pipeline_prefixes

let test_asm_printer_roundtrip () =
  (* the asm-side printer round-trip: every instruction of a lowered -O2
     image reparses, through the assembler, to the identical instruction *)
  let tp = typed branchy_source in
  let options = Instr_select.default_options in
  let tp2 = Regalloc.run ~options ~level:Opt.O2 tp in
  let program = Lower.run (Jump_opt.run (Instr_select.select ~level:Opt.O2 tp2)) tp2 in
  for pc = 0 to Program.length program - 1 do
    let insn = Program.insn program pc in
    let text = Insn.to_string insn in
    let back = Asm.parse_insn text in
    if back <> insn then Alcotest.failf "asm round-trip at pc %d: %s" pc text
  done

let test_dump_pass_hook () =
  (* Pipeline.run reports every executed pass to [dump], in order *)
  let tp = typed roundtrip_source in
  let seen = ref [] in
  let dump name text =
    if text = "" then Alcotest.failf "empty dump for pass %s" name;
    seen := name :: !seen
  in
  ignore (Pipeline.run ~level:Opt.O2 ~dump tp);
  let order = List.rev !seen in
  Alcotest.(check (list string))
    "O2 dumps every pass" Pipeline.pass_names order;
  List.iter
    (fun name ->
      if not (List.mem name Pipeline.pass_names) then
        Alcotest.failf "dump reported unknown pass %s" name)
    order

(* --- the -O0 = -O2 QCheck differential ----------------------------------- *)

(* Random programs: iterated clauses of data-dependent branches, shifts and
   guarded divisions, with locals the register allocator will promote and a
   helper call. The fast-tier and reference-model differentials
   (test_selective.ml, test_reference.ml) reuse the generator. *)
type clause = { mul : int; modulus : int; bound : int; shift : int }

let clause_src i cl =
  Printf.sprintf
    "    if ((i * %d) %% %d < %d) { acc = acc + ((i << %d) - (acc >> 1)); }\n\
    \    else { acc = acc - (i %% %d) - %d; }\n\
    \    if (acc %% 97 == %d) { acc = acc + step(i); }\n"
    cl.mul cl.modulus cl.bound cl.shift cl.modulus (i + 1)
    ((cl.mul + cl.bound) mod 97)

let program_src (iters, clauses) =
  Printf.sprintf
    "int last = 0;\n\
     int step(int i) { return 1000 / (1 + (i %% 7)); }\n\
     int main() {\n\
    \  int i;\n\
    \  int acc;\n\
    \  acc = 0;\n\
    \  for (i = 0; i < %d; i = i + 1) {\n\
     %s\
    \  }\n\
    \  last = acc;\n\
    \  print_int(acc);\n\
    \  return acc %% 5;\n\
     }\n"
    iters
    (String.concat "" (List.mapi clause_src clauses))

let clause_gen =
  QCheck.Gen.(
    map
      (fun (mul, modulus, bound, shift) ->
        { mul = 1 + mul; modulus = 2 + modulus; bound; shift })
      (quad (int_bound 6) (int_bound 7) (int_bound 9) (int_bound 5)))

let program_gen =
  QCheck.Gen.(
    pair
      (map (fun n -> 2 + n) (int_bound 18))
      (list_size (map (fun n -> 1 + n) (int_bound 3)) clause_gen))

(* Exit code, output, and the observable final memory: every named global of
   the image read back after the run. *)
let observables level source =
  let compiled = Compile.compile ~level source in
  let program = compiled.Compile.program in
  let machine = Machine.create program in
  let r = Engine.run ~config:Pe_config.baseline machine in
  let outcome =
    match r.Engine.outcome with
    | `Halted -> "halted"
    | `Exited n -> Printf.sprintf "exited %d" n
    | `Faulted f -> "fault " ^ Cpu.fault_to_string f
    | `Fuel_exhausted -> "fuel"
  in
  let globals =
    List.map
      (fun (name, addr) -> (name, Memory.read machine.Machine.mem addr))
      program.Program.global_vars
  in
  (outcome, Machine.output machine, globals)

let prop_opt_differential =
  QCheck.Test.make ~name:"random programs: -O2 = -O0 observables" ~count:25
    (QCheck.make ~print:program_src program_gen) (fun params ->
      let source = program_src params in
      observables Opt.O0 source = observables Opt.O2 source)

(* --- pinned images ---------------------------------------------------------- *)

(* An image as the compiler produced it, in the record shape
   bench/images.md5 was taken over: [Program.t]'s fields before the code
   was packed and the source lines flattened, field for field. [Marshal]
   writes no type names, so the digests stay those of the compiler's own
   output, and matching them proves that unpacking returns exactly what
   was packed. *)
module Unpacked = struct
  type t = {
    code : Insn.t array;
    entry : int;
    globals_words : int;
    init_data : (int * int) list;
    sites : Site.t array;
    user_branches : int list;
    functions : (string * int) list;
    user_code_ranges : (int * int) list;
    fix_atoms : (int * Fix_atom.t) list;
    global_vars : (string * int) list;
    blank_addrs : (string * int) list;
    source_lines : (int * int) array;
  }

  let of_program (p : Program.t) =
    {
      code = Array.init (Program.length p) (Program.insn p);
      entry = p.Program.entry;
      globals_words = p.Program.globals_words;
      init_data = p.Program.init_data;
      sites = p.Program.sites;
      user_branches = p.Program.user_branches;
      functions = p.Program.functions;
      user_code_ranges = p.Program.user_code_ranges;
      fix_atoms = p.Program.fix_atoms;
      global_vars = p.Program.global_vars;
      blank_addrs = p.Program.blank_addrs;
      source_lines =
        (let lines = p.Program.source_lines in
         Array.init (Array.length lines / 2) (fun i ->
             (lines.(2 * i), lines.((2 * i) + 1))));
    }
end

(* Packing the unpacked code again rebuilds the same words and pool, and
   unpacks to the same instructions; [None] when it does. *)
let repack_mismatch (p : Program.t) =
  let code = Array.init (Program.length p) (Program.insn p) in
  let again =
    Program.make ~entry:p.Program.entry ~globals_words:p.Program.globals_words
      ~init_data:p.Program.init_data ~sites:p.Program.sites
      ~user_branches:p.Program.user_branches code
  in
  if again.Program.code <> p.Program.code then Some "code words"
  else if again.Program.pool <> p.Program.pool then Some "pool"
  else
    let rec first pc =
      if pc = Array.length code then None
      else if Program.insn again pc <> code.(pc) then
        Some (Printf.sprintf "instruction %d" pc)
      else first (pc + 1)
    in
    first 0

(* Every registry workload's images at every level, compiled once for the
   two checks below: per (workload, level), the digest bench/images.md5
   describes and the images that fail the repacking round trip. *)
let registry_images =
  lazy
    (let detectors =
       [ Codegen.No_detector; Codegen.Ccured; Codegen.Iwatcher;
         Codegen.Assertions ]
     in
     List.concat_map
       (fun (w : Workload.t) ->
         let versions =
           None
           :: List.map (fun (b : Bug.t) -> Some b.Bug.version) w.Workload.bugs
         in
         List.map
           (fun level ->
             let images = Buffer.create 65536 in
             let mismatches = ref [] in
             List.iter
               (fun bug ->
                 let source = w.Workload.source ~bug in
                 List.iter
                   (fun detector ->
                     let c =
                       Compile.compile
                         ~options:{ Codegen.detector; fixing = true }
                         ~level source
                     in
                     let p = c.Compile.program in
                     Buffer.add_string images
                       (Marshal.to_string (Unpacked.of_program p)
                          [ Marshal.No_sharing ]);
                     match repack_mismatch p with
                     | Some what ->
                       mismatches :=
                         Printf.sprintf "%s bug %s: %s"
                           (Codegen.detector_name detector)
                           (match bug with
                            | Some v -> string_of_int v
                            | None -> "-")
                           what
                         :: !mismatches
                     | None -> ())
                   detectors)
               versions;
             ( (w.Workload.name, Opt.to_string level),
               ( Digest.to_hex (Digest.string (Buffer.contents images)),
                 List.rev !mismatches ) ))
           [ Opt.O0; Opt.O1; Opt.O2 ])
       Registry.all)

(* A pass that changes one byte of any image fails here and prints the
   new digest. *)
let test_pinned_images () =
  let pinned =
    In_channel.with_open_text "../bench/images.md5" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ app; level; digest ] -> ((app, level), digest)
           | _ -> Alcotest.failf "bad bench/images.md5 line %S" l)
  in
  let computed =
    List.map
      (fun (key, (digest, _)) -> (key, digest))
      (Lazy.force registry_images)
  in
  Alcotest.(check (list (pair string string)))
    "pinned (workload, level) pairs" (List.map fst pinned) (List.map fst computed);
  List.iter
    (fun (((app, level) as key), digest) ->
      Alcotest.(check string)
        (Printf.sprintf "%s -%s image digest" app level)
        (List.assoc key pinned) digest)
    computed

let test_registry_repack () =
  List.iter
    (fun ((app, level), (_, mismatches)) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s -%s images repack" app level)
        [] mismatches)
    (Lazy.force registry_images)

let tests =
  [
    Alcotest.test_case "desugar eliminates ! and flattens blocks" `Quick
      test_desugar;
    Alcotest.test_case "uniquify renames shadowing locals" `Quick
      test_uniquify;
    Alcotest.test_case "fold-const folds, keeps faults" `Quick test_fold_const;
    Alcotest.test_case "dce drops pure statements" `Quick test_dce;
    Alcotest.test_case "remove-unused-defs drops uncalled functions" `Quick
      test_unused_defs;
    Alcotest.test_case "regalloc promotes hot scalars only" `Quick
      test_regalloc;
    Alcotest.test_case "instr-select at O0 matches reference emission" `Quick
      test_instr_select_o0_identity;
    Alcotest.test_case "jump-opt shrinks code, preserves behavior" `Quick
      test_jump_opt;
    Alcotest.test_case "lower resolves every target" `Quick test_lower;
    Alcotest.test_case "tast printers round-trip through the front end" `Quick
      test_printer_roundtrip;
    Alcotest.test_case "lowered instructions round-trip through the assembler"
      `Quick test_asm_printer_roundtrip;
    Alcotest.test_case "--dump-pass hook fires once per executed pass" `Quick
      test_dump_pass_hook;
    Alcotest.test_case "every registry image matches bench/images.md5" `Quick
      test_pinned_images;
    Alcotest.test_case "every registry image repacks to itself" `Quick
      test_registry_repack;
    QCheck_alcotest.to_alcotest prop_opt_differential;
  ]
