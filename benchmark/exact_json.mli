(** Exact JSON for benchmark artifacts.

    Integers (including 63-bit digests) are written as decimal integers
    and floats with 17 significant digits, so every value reads back
    bit-identical. Non-finite floats become [null]. *)

type t =
  | Int of int
  | Float of float
  | String of string
  | Bool of bool
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no trailing newline. *)

val write : path:string -> t -> unit
(** [to_string] plus a newline, to [path]. *)

(** Scalars of a flat object, numbers kept as their source text so the
    caller decides between [int_of_string] and [float_of_string]. *)
type scalar = Number of string | Str of string | Boolean of bool | Null

val parse_flat : string -> (string * scalar) list
(** Read one flat object — [{"key": scalar, ...}], no nesting — in
    source order. @raise Failure on anything else. *)
