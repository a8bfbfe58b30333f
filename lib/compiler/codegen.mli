(** Compatibility facade over the nanopass MiniC pipeline (see {!Pipeline}),
    re-exporting the code generator's historical public surface.

    {b Consistency fixing} (Section 4.4): every conditional branch is laid
    out with a stub at the head of each edge. The stub holds *predicated*
    instructions that repair the branch's condition variable to a boundary
    value consistent with that edge (null pointers are redirected to the
    per-type blank structures), followed by [Clearpred]. The predicate
    register is set only by an NT-Path spawn landing on the stub, so on the
    taken path the stubs retire as NOPs. Branch-taken targets point at the
    true stub and the fallthrough is the false stub, which is exactly where
    the engine redirects a forced edge.

    {b Detector instrumentation}: CCured-style bounds/null checks, iWatcher
    red-zone watch registration (globals at the entry stub, locals in
    prologues/epilogues, heap blocks via the prelude), or assertion
    lowering. All checks compile branch-free (through [Checkz]) so checking
    code never perturbs branch statistics and PathExpander never spawns
    inside a checker — the paper's integration requirement. *)

exception Error of string * int  (** message, line *)

type detector = Instr_select.detector =
  | No_detector
  | Ccured
  | Iwatcher
  | Assertions

val detector_name : detector -> string

type options = Instr_select.options = {
  detector : detector;
  fixing : bool;  (** emit the predicated consistency-fix stubs *)
}

(** No detector, fixing on. *)
val default_options : options

(** Boundary value satisfying [v cmp k] — what the fix pins a condition
    variable to (e.g. the true edge of [x < 5] pins [x] to 4). *)
val boundary_value : Insn.cmp -> int -> int

(** Generate an executable image from a typed program via the nanopass
    pipeline; the result is validated before being returned. [level]
    defaults to [O0], the emission byte-identical to the historical
    single-pass generator.
    [dump] receives each executed pass's name and pretty-printed output. *)
val generate :
  ?options:options ->
  ?level:Opt.level ->
  ?dump:(string -> string -> unit) ->
  Tast.tprogram ->
  Program.t
