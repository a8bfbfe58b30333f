type mode = Baseline | Standard | Cmp

type t = {
  mode : mode;
  nt_counter_threshold : int;
  max_nt_path_length : int;
  max_num_nt_paths : int;
  counter_reset_interval : int;
  fixing : bool;
  follow_nontaken_in_nt : bool;
  spawn_everywhere : bool;
  sandbox_syscalls : bool;
  random_spawn_chance : float;
  random_seed : int;
  profiled_fixing : bool;
}

(* Paper defaults (Section 6.3): threshold 5, 1000-instruction NT-Paths, 32
   outstanding NT-Paths for the CMP option. *)
let default =
  {
    mode = Standard;
    nt_counter_threshold = 5;
    max_nt_path_length = 1000;
    max_num_nt_paths = 32;
    counter_reset_interval = 10_000_000;
    fixing = true;
    follow_nontaken_in_nt = false;
    spawn_everywhere = false;
    sandbox_syscalls = false;
    random_spawn_chance = 0.0;
    random_seed = 1;
    profiled_fixing = false;
  }

let baseline = { default with mode = Baseline }

(* Small Siemens programs use 100-instruction NT-Paths in the paper
   (Section 6.3); our naive code generator emits ~3-5 machine instructions
   per source operation, so the equivalent budget here is 500. *)
let siemens = { default with max_nt_path_length = 500 }

(* Configuration of the crash-latency feasibility study (Section 3.2): spawn
   on every cold edge, no consistency fixing. *)
let latency_study =
  {
    default with
    nt_counter_threshold = 1;
    fixing = false;
    max_nt_path_length = 1000;
  }

let mode_name = function
  | Baseline -> "baseline"
  | Standard -> "standard"
  | Cmp -> "cmp"
