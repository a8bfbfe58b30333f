(** Word-addressed data memory, stored as pages allocated on first write.

    Layout: the first [Program.null_guard_words] addresses form an unmapped
    null page (accessing any of them is a null-access fault), then globals,
    heap, and the downward-growing stack whose initial [sp] is [stack_base].
    Every other address inside the space is accessible — the machine faults
    on null-page, negative or beyond-address-space accesses, the
    access-violation crash model the paper's NT-Path crash-latency study
    relies on.

    Storage is independent of that layout: the space is cut into fixed
    1024-word pages, every page starts as one shared all-zero page that is
    never written, and the first store to a page gives it its own words.
    A run pays for the pages it writes, not for the address space. *)

type t = {
  pages : int array array;
      (** page [i] holds addresses [[i * 1024, (i + 1) * 1024)]; read-only
          outside this module — untouched pages alias one shared zero page,
          so every store goes through {!write} or {!write_valid} *)
  globals_end : int;  (** first address past the globals segment *)
  heap_base : int;
  stack_base : int;  (** initial stack pointer; also the space's size *)
}

type fault = Null_access | Out_of_range of int

exception Fault of fault

(** First mapped address (size of the null page). *)
val null_guard : int

val create : globals_words:int -> heap_words:int -> stack_words:int -> t

(** Total address-space size in words. *)
val size : t -> int

(** Raises {!Fault} if [addr] is not accessible; no other effect. *)
val check : t -> int -> unit

(** Raises {!Fault} if [addr] is not accessible. *)
val read : t -> int -> int

(** [read] minus the access check, for callers that have just established
    [is_valid]. *)
val read_valid : t -> int -> int

val write : t -> int -> int -> unit

(** [write] minus the access check, for callers that have just established
    [is_valid] (the fast tier validates operands *before*
    committing an instruction). The first store to a page allocates it. *)
val write_valid : t -> int -> int -> unit

(** Exactly the complement of {!check}'s raise condition. *)
val is_valid : t -> int -> bool

(** The fault {!check} raises for an address it rejects. *)
val fault_at : int -> fault

val fault_to_string : fault -> string

(** Install the program's initialised globals. *)
val load_init : t -> (int * int) list -> unit
