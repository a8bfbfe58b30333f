(** Executable program images.

    A program is a flat instruction array (the pc is the array index), a
    globals segment with optional initial data, the table of detector report
    sites, and metadata produced by the compiler: which branches belong to
    *user* code (the branch-coverage universe — runtime-library branches are
    excluded, mirroring how the paper reports per-application coverage), the
    function table, and the addresses of the per-type blank structures used
    by NT-Path pointer fixing. *)

type t = {
  code : Insn.t array;
  entry : int;  (** pc of [main] *)
  globals_words : int;  (** size of the globals segment, in words *)
  init_data : (int * int) list;  (** initialised global words: (addr, value) *)
  sites : Site.t array;  (** report sites, indexed by id *)
  user_branches : int list;  (** pcs of coverage-counted conditional branches *)
  functions : (string * int) list;  (** function name -> entry pc *)
  user_code_ranges : (int * int) list;
      (** [\[start, end)] pc ranges of user (non-runtime-library) functions:
          the statement-coverage universe *)
  fix_atoms : (int * Fix_atom.t) list;
      (** branch pc -> fixable-condition description (the profiled-fixing
          extension's compiler hints) *)
  global_vars : (string * int) list;  (** global variable name -> address *)
  blank_addrs : (string * int) list;  (** type name -> blank structure address *)
  source_lines : (int * int) array;  (** (pc, source line), sorted by pc *)
}

(** Size of the unmapped null page: accesses below this address fault.
    Globals start at this address. *)
val null_guard_words : int

(** The largest globals segment a program may have, in words: 60 times
    the largest registry segment (164.gzip's 17,246). A bound keeps the
    address space [Memory] lays out behind the segment from wrapping past
    [max_int] and its page table to a size the segment's program can use. *)
val max_globals_words : int

exception Invalid_program of string

(** Pcs of every conditional branch in the image (user and runtime). *)
val all_branches : t -> int list

(** Address of a named global variable, if any. *)
val global_address : t -> string -> int option

(** Structural well-formedness check; raises {!Invalid_program} on dangling
    control targets, bad registers, nested predication, ill-indexed sites,
    out-of-segment initial data or a globals segment outside
    [[0, max_globals_words]]. *)
val validate : t -> unit

(** Source line generating the instruction at [pc] (0 when unknown). *)
val line_of_pc : t -> int -> int

(** Name of the function containing [pc], if any. *)
val function_of_pc : t -> int -> string option

(** Textual disassembly of [\[lo, hi)] (defaults: whole image). *)
val disassemble : ?lo:int -> ?hi:int -> t -> string
