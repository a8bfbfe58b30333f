(* The reference-model differential: every run of the simulator's one run
   driver ([Fast_loop.drive]) against [Ref_model], the ISA's executable
   reference semantics, which shares no interpreter code with it.

   Whole programs: exit outcome, output, retired instructions, detector
   reports and every word of final memory. NT-Paths: the engine's runner
   and the model start from the same spawn point and state and must agree
   on the termination cause, the path length and the words the path wrote,
   and the path must leave committed memory untouched. Inputs are every
   registry workload under every detector, an iWatcher red-zone overflow
   and random MiniC programs.

   Whole runs are checked on the fast tier and with the zero-budget tick,
   a [tick] that returns the current retired count and so pins every
   instruction to the hooked step. *)

let fuel = 100_000_000
let mconfig = Machine_config.default

let model ~input program =
  Ref_model.create ~input ~heap_words:mconfig.Machine_config.heap_words
    ~stack_words:mconfig.Machine_config.stack_words program

let model_outcome = function
  | Ref_model.Limit -> "fuel-exhausted"
  | stop -> Ref_model.stop_name stop

let engine_outcome = function
  | `Fuel_exhausted -> "fuel-exhausted"
  | outcome -> Engine.outcome_name outcome

let exit_outcome = function
  | Fast_loop.Limit -> "fuel-exhausted"
  | Fast_loop.Exited n -> Ref_model.stop_name (Ref_model.Exited n)
  | Fast_loop.Halted -> "halted"
  | Fast_loop.Fault f -> "faulted: " ^ Cpu.fault_to_string f
  | Fast_loop.Overflow -> "overflow"
  | Fast_loop.Unsafe sys -> "unsafe " ^ Insn.sys_name sys

let termination_name = function
  | Nt_path.T_max_length -> "limit"
  | Nt_path.T_crash f -> "faulted: " ^ Cpu.fault_to_string f
  | Nt_path.T_unsafe sys -> "unsafe " ^ Insn.sys_name sys
  | Nt_path.T_program_end -> "halted"
  | Nt_path.T_cache_overflow -> "overflow"

(* Reports in a canonical order: the sites one access fires are listed in
   the watch unit's range order, which is not part of the semantics. *)
let engine_reports machine =
  List.sort compare
    (List.map
       (fun (e : Report.entry) ->
         (e.Report.insn_index, e.Report.site, e.Report.pc,
          e.Report.origin <> Report.Taken_path))
       (Report.entries machine.Machine.reports))

let model_reports m =
  List.sort compare
    (List.map
       (fun (r : Ref_model.report) ->
         (r.Ref_model.index, r.Ref_model.site, r.Ref_model.pc,
          r.Ref_model.on_nt_path))
       (Ref_model.reports m))

let reports_t = Alcotest.(list (pair (pair int int) (pair int bool)))
let shape = List.map (fun (i, s, p, nt) -> ((i, s), (p, nt)))

(* Every word of the address space, the null page excepted. *)
let check_memory name machine m =
  let mem = machine.Machine.mem and words = Ref_model.memory m in
  Alcotest.(check int) (name ^ ": address space") (Array.length words)
    (Memory.size mem);
  for a = Memory.null_guard to Array.length words - 1 do
    let got = Memory.read_valid mem a in
    if got <> words.(a) then
      Alcotest.failf "%s: word %d is %d, the model has %d" name a got words.(a)
  done

let check_end name machine m ~outcome ~insns ~model_stop =
  Alcotest.(check string) (name ^ ": outcome") (model_outcome model_stop) outcome;
  Alcotest.(check int) (name ^ ": retired") (Ref_model.insns m) insns;
  Alcotest.(check string) (name ^ ": output") (Ref_model.output m)
    (Machine.output machine);
  Alcotest.check reports_t (name ^ ": reports") (shape (model_reports m))
    (shape (engine_reports machine));
  check_memory name machine m

let pinned_tick ctx () = ctx.Context.stats.Context.insns

(* A whole baseline run: the engine's, on the fast tier, and a drive with
   the zero-budget tick, every instruction on the hooked step. Returns the
   engine's result. *)
let check_run name ~input program =
  let m = model ~input program in
  let model_stop = Ref_model.run m ~limit:fuel in
  let machine = Machine.create ~input program in
  let r = Engine.run ~config:Pe_config.baseline machine in
  check_end (name ^ " (fast tier)") machine m
    ~outcome:(engine_outcome r.Engine.outcome)
    ~insns:r.Engine.taken_insns ~model_stop;
  let machine = Machine.create ~input program in
  let ctx = Machine.main_context machine in
  let hooks =
    { Fast_loop.tick = pinned_tick ctx; branch = ignore;
      syscall = (fun _ -> true) }
  in
  let exit =
    Fast_loop.drive
      (Fast_loop.make machine ctx (Coverage.create program))
      hooks ~spawning:false ~threshold:0 ~limit:fuel
  in
  check_end (name ^ " (hooked step)") machine m ~outcome:(exit_outcome exit)
    ~insns:ctx.Context.stats.Context.insns ~model_stop;
  r

(* The taken path runs on the driver with every branch handed to the
   branch hook; the model runs to the same branch and must be in the same
   state. Every [stride]-th branch (at most [max_spawns]) spawns an NT-Path
   on the non-taken edge, through [Nt_path.run] and through the model. A
   store hook over the whole space records the words the engine's path
   writes. [pinned] drives the taken path with the zero-budget tick. *)
let check_nt_paths ?(pinned = false) name ~input ~(config : Pe_config.t)
    ~stride ~max_spawns program =
  let machine = Machine.create ~input program in
  let ctx = Machine.main_context machine in
  let coverage = Coverage.create program in
  let line_limit = Machine_config.l1_lines mconfig in
  let words_per_line = Machine_config.words_per_line mconfig in
  let arena =
    Nt_path.make_arena machine config coverage ~l1:ctx.Context.l1 ~line_limit
  in
  let m = model ~input program in
  let written = Hashtbl.create 64 in
  let observe path_ctx addr value =
    if Context.is_sandboxed path_ctx then Hashtbl.replace written addr value
  in
  let branches = ref 0 and spawns = ref 0 in
  let branch () =
    (match Ref_model.to_branch m ~limit:fuel with
     | Ok (pc, taken, target) ->
       if
         (pc, taken, target)
         <> (ctx.Context.br_pc, ctx.Context.br_taken, ctx.Context.br_target)
       then Alcotest.failf "%s: branch %d differs at pc %d" name !branches pc
     | Error stop ->
       Alcotest.failf "%s: the model stopped (%s) before branch %d" name
         (Ref_model.stop_name stop) !branches);
    if Ref_model.regs m <> ctx.Context.regs then
      Alcotest.failf "%s: registers differ at branch %d" name !branches;
    incr branches;
    if !branches mod stride = 1 mod stride && !spawns < max_spawns then begin
      incr spawns;
      let br_pc = ctx.Context.br_pc and taken = ctx.Context.br_taken in
      let entry = if taken then br_pc + 1 else ctx.Context.br_target in
      let label = Printf.sprintf "%s: NT-Path %d at pc %d" name !spawns br_pc in
      Hashtbl.reset written;
      machine.Machine.store_hook <-
        Some { Machine.lo = 0; hi = max_int; observe };
      let record =
        Nt_path.run arena ~l1:ctx.Context.l1 ~regs:ctx.Context.regs ~entry
          ~spawn_br_pc:br_pc ~forced_direction:(not taken)
          ~path_id:(((!spawns - 1) mod 255) + 1)
          ~spawn_cycle:ctx.Context.stats.Context.cycles
      in
      machine.Machine.store_hook <- None;
      let r =
        Ref_model.nt_path m ~entry ~fixing:config.Pe_config.fixing
          ~limit:config.Pe_config.max_nt_path_length ~line_limit
          ~words_per_line
      in
      Alcotest.(check string) (label ^ ": termination")
        (Ref_model.stop_name r.Ref_model.nt_stop)
        (termination_name record.Nt_path.termination);
      Alcotest.(check int) (label ^ ": length") r.Ref_model.nt_insns
        record.Nt_path.insns;
      Alcotest.(check (list (pair int int))) (label ^ ": words written")
        r.Ref_model.nt_words
        (List.sort compare
           (Hashtbl.fold (fun a v acc -> (a, v) :: acc) written []));
      List.iter
        (fun (a, _) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: committed word %d untouched" label a)
            (Ref_model.memory m).(a)
            (Memory.read_valid machine.Machine.mem a))
        r.Ref_model.nt_words
    end
  in
  let tick = if pinned then pinned_tick ctx else Fast_loop.no_tick in
  let hooks = { Fast_loop.tick; branch; syscall = (fun _ -> true) } in
  let exit =
    Fast_loop.drive (Fast_loop.make machine ctx coverage) hooks ~spawning:true
      ~threshold:max_int ~limit:fuel
  in
  let model_stop = Ref_model.run m ~limit:fuel in
  check_end name machine m ~outcome:(exit_outcome exit)
    ~insns:ctx.Context.stats.Context.insns ~model_stop;
  !spawns

let detectors =
  [ Codegen.No_detector; Codegen.Ccured; Codegen.Iwatcher; Codegen.Assertions ]

let test_workload (w : Workload.t) () =
  let input = w.Workload.default_input in
  let first_bug =
    match w.Workload.bugs with b :: _ -> Some b.Bug.version | [] -> None
  in
  List.iter
    (fun detector ->
      let name bug =
        Printf.sprintf "%s/%s%s" w.Workload.name
          (Codegen.detector_name detector)
          (match bug with Some v -> Printf.sprintf "/bug%d" v | None -> "")
      in
      (match first_bug with
       | Some _ ->
         ignore
           (check_run (name first_bug) ~input
              (Workload.compile ~detector ?bug:first_bug w).Compile.program)
       | None -> ());
      let program = (Workload.compile ~detector w).Compile.program in
      let spawns =
        check_nt_paths (name None) ~input ~config:(Workload.pe_config w)
          ~stride:5 ~max_spawns:120 program
      in
      if spawns = 0 then Alcotest.failf "%s: no branch to spawn at" (name None))
    detectors

(* A store through a watched red zone: iWatcher's stack buffer overflowed
   by one word, with consistency fixing on. Segments under armed
   watchpoints run on the batching fast tier, which stops before any
   access to a watched word and leaves it to the hooked step, so the cache
   memo cannot swallow the report. *)
let test_iwatcher_red_zone () =
  let source =
    {|
int smash(int n) {
  int buf[4];
  int i;
  for (i = 0; i <= n; i = i + 1) {
    buf[i] = i;
  }
  return buf[0];
}
int main() { return smash(4); }
|}
  in
  let options = { Codegen.detector = Codegen.Iwatcher; fixing = true } in
  let program = (Compile.compile ~options source).Compile.program in
  let r = check_run "red zone" ~input:"" program in
  Alcotest.(check bool) "fast tier engaged" true (r.Engine.fast_insns > 0);
  ignore
    (check_nt_paths "red zone" ~input:"" ~config:Pe_config.default ~stride:1
       ~max_spawns:40 program);
  let machine = Machine.create program in
  let r = Engine.run ~config:Pe_config.default machine in
  Alcotest.(check bool) "red zone fires" true
    (Report.count machine.Machine.reports > 0);
  Alcotest.(check bool) "fast tier engaged with NT-Paths" true
    (r.Engine.fast_insns > 0)

(* Literals too wide for a packed word's immediate field live in the
   program's pool: [max_int], [min_int] (spelt [-max_int - 1], which -O1
   folds to one literal) and sums that select immediate forms at -O1 and
   above. Run at every level, taken path and NT-Paths. *)
let test_wide_literals () =
  let source =
    {|
int main() {
  int big;
  int small;
  int i;
  int acc;
  big = 4611686018427387903;
  small = -4611686018427387903 - 1;
  acc = 0;
  for (i = 0; i < 4; i = i + 1) {
    if (acc < 4611686018427387000) { acc = acc + i; }
    if (small < acc) { acc = acc * 3; }
  }
  print_int(big);
  print_int(small);
  print_int(acc + 4611686018427387000);
  print_int(big + small);
  return 0;
}
|}
  in
  List.iter
    (fun level ->
      let name = "wide literals -" ^ Opt.to_string level in
      let program = (Compile.compile ~level source).Compile.program in
      Alcotest.(check bool) (name ^ ": pooled immediates") true
        (Array.length program.Program.pool > 0);
      ignore (check_run name ~input:"" program);
      ignore
        (check_nt_paths ~pinned:true name ~input:"" ~config:Pe_config.default
           ~stride:1 ~max_spawns:20 program))
    [ Opt.O0; Opt.O1; Opt.O2 ]

(* test_passes' random MiniC programs at every optimization level; the
   taken path under NT-Paths runs with the zero-budget tick. *)
let prop_random_programs =
  QCheck.Test.make ~name:"random programs: engine = reference model" ~count:20
    (QCheck.make
       ~print:(fun (level, params) ->
         Opt.to_string level ^ "\n" ^ Test_passes.program_src params)
       QCheck.Gen.(
         pair (oneofl [ Opt.O0; Opt.O1; Opt.O2 ]) Test_passes.program_gen))
    (fun (level, params) ->
      let source = Test_passes.program_src params in
      let program = (Compile.compile ~level source).Compile.program in
      ignore (check_run "random program" ~input:"" program);
      ignore
        (check_nt_paths ~pinned:true "random program" ~input:""
           ~config:Pe_config.default ~stride:1 ~max_spawns:40 program);
      true)

let tests =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s: engine = reference model" w.Workload.name)
        `Quick (test_workload w))
    Registry.all
  @ [
      Alcotest.test_case "iWatcher red zone: engine = reference model" `Quick
        test_iwatcher_red_zone;
      Alcotest.test_case "wide literals: engine = reference model" `Quick
        test_wide_literals;
      QCheck_alcotest.to_alcotest prop_random_programs;
    ]
