(** Abstract syntax of MiniC, the C-like source language of the benchmark
    programs.

    MiniC covers the subset of C the Siemens/SPEC ports need: [int]/[char]
    scalars (both one machine word), pointers, fixed-size arrays, named
    structs, functions with scalar parameters, the usual statement forms,
    short-circuit booleans, the conditional operator and [assert]. Every
    node carries its source line so detector report sites and bug metadata
    can name lines. *)

type ty =
  | Tint  (** [int] and [char] (one word each) *)
  | Tptr of ty
  | Tarray of ty * int  (** -1 = size to be inferred from the initialiser *)
  | Tstruct of string
  | Tvoid

type unop = Neg | Lnot | Bnot

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | Land  (** short-circuit && *)
  | Lor  (** short-circuit || *)

type expr = { desc : desc; line : int }

and desc =
  | Int_lit of int
  | Str_lit of string
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of expr * expr
  | Call of string * expr list
  | Index of expr * expr
  | Deref of expr
  | Addr of expr
  | Field of expr * string
  | Arrow of expr * string
  | Cond of expr * expr * expr
  | Sizeof of ty  (** size in words *)

type stmt = { sdesc : sdesc; sline : int }

and sdesc =
  | Sexpr of expr
  | Sdecl of ty * string * expr option
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sfor of expr option * expr option * expr option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sassert of expr
      (** compiled to a branch-free check under the assertions detector,
          skipped entirely under the others *)
  | Sblock of stmt list

type func = {
  fname : string;
  fret : ty;
  fparams : (ty * string) list;
  fbody : stmt list;
  fline : int;
}

type init = Init_int of int | Init_string of string | Init_list of int list

type global =
  | Gvar of ty * string * init option * int  (** name, initialiser, line *)
  | Gstruct of string * (ty * string) list * int  (** name, fields, line *)
  | Gfunc of func

type program = global list

val ty_to_string : ty -> string
val unop_to_string : unop -> string
val binop_to_string : binop -> string

(** Escape for string literals in the pretty-printer. *)
val escape_string : string -> string

val expr_to_string : expr -> string
val stmt_to_string : indent:int -> stmt -> string
val global_to_string : global -> string

(** Pretty-print a whole program; parsing the result yields an equivalent
    program (the round-trip property tested in [test/test_props.ml]). *)
val program_to_string : program -> string
