type store_hook = {
  lo : int;
  hi : int;
  observe : Context.t -> int -> int -> unit;
}

type t = {
  config : Machine_config.t;
  program : Program.t;
  mem : Memory.t;
  l2 : Cache.t;
  btb : Btb.t;
  watch : Watchpoints.t;
  reports : Report.t;
  io : Io.t;
  mutable insn_index : int;
  mutable store_hook : store_hook option;
  telemetry : Telemetry.t;
}

let create ?(config = Machine_config.default) ?(input = "") program =
  let mem =
    Memory.create ~globals_words:program.Program.globals_words
      ~heap_words:config.Machine_config.heap_words
      ~stack_words:config.Machine_config.stack_words
  in
  Memory.load_init mem program.Program.init_data;
  (* The MiniC runtime's bump allocator keeps its break pointer in the first
     global word (right after the null page); initialise it to the heap
     base, which is only known once memory is laid out. *)
  if program.Program.globals_words > 0 then
    Memory.write mem Memory.null_guard mem.Memory.heap_base;
  let l2 =
    Cache.create ~size_kb:config.Machine_config.l2_size_kb
      ~assoc:config.Machine_config.l2_assoc
      ~line_bytes:config.Machine_config.line_bytes
  in
  {
    config;
    program;
    mem;
    l2;
    btb =
      Btb.create ~entries:config.Machine_config.btb_entries
        ~assoc:config.Machine_config.btb_assoc;
    watch = Watchpoints.create ~size:(Memory.size mem);
    reports = Report.create ();
    io = Io.create ~input ();
    insn_index = 0;
    store_hook = None;
    telemetry = Telemetry.create ();
  }

let new_l1 machine =
  Cache.create ~size_kb:machine.config.Machine_config.l1_size_kb
    ~assoc:machine.config.Machine_config.l1_assoc
    ~line_bytes:machine.config.Machine_config.line_bytes

let main_context machine =
  Context.create ~l1:(new_l1 machine) ~pc:machine.program.Program.entry
    ~sp:machine.mem.Memory.stack_base

(* Extra cycles for a data access: L1 hits are pipelined (no stall), an L1
   miss pays the latency of the level that services it. Speculative paths
   (non-zero owner) fill their own L1 — fills and writes take the path's
   version tag, read hits leave committed lines committed — but only probe
   the shared L2. *)
let access_latency machine l1 ~owner ~write ~speculative addr =
  match Cache.access_line l1 addr ~owner ~write ~allocate:true with
  | Cache.Hit -> 0
  | Cache.Miss ->
    (match
       Cache.access_line machine.l2 addr ~owner:Cache.committed_owner
         ~write:false ~allocate:(not speculative)
     with
     | Cache.Hit -> machine.config.Machine_config.l2_latency
     | Cache.Miss -> machine.config.Machine_config.mem_latency)

let release (_ : t) = ()

let output machine = Io.output machine.io
