(** Dense integer matrices over {!Zint}.

    Row-major [Zint.t array array]; matrices are treated as immutable by
    every function here but {!det_in_place}.  Determinant and rank use fraction-free Bareiss
    elimination, which keeps intermediate entries bounded by minors of
    the input and never leaves the integers. *)

type t = Zint.t array array

(** {1 Construction and access} *)

val make : int -> int -> (int -> int -> Zint.t) -> t
val of_ints : int list list -> t
(** @raise Invalid_argument on ragged rows or an empty matrix. *)

val to_ints : t -> int list list
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Zint.t
val row : t -> int -> Intvec.t
val col : t -> int -> Intvec.t
val identity : int -> t
val zero : int -> int -> t
val transpose : t -> t
val copy : t -> t
val equal : t -> t -> bool

val of_rows : Intvec.t list -> t
val of_cols : Intvec.t list -> t
val append_row : t -> Intvec.t -> t
(** Stack one extra row under the matrix. *)

val hcat : t -> t -> t
val sub_cols : t -> int -> int -> t
(** [sub_cols m lo len] keeps columns [lo .. lo+len-1]. *)

val delete_row_col : t -> int -> int -> t
(** [delete_row_col m i j] is the (i,j) minor's matrix. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val mul_vec : t -> Intvec.t -> Intvec.t
val vec_mul : Intvec.t -> t -> Intvec.t
(** Row-vector times matrix. *)

val scale : Zint.t -> t -> t

(** {1 Invariants} *)

val det : t -> Zint.t
(** Determinant by fraction-free Bareiss elimination.
    @raise Invalid_argument on a non-square matrix. *)

val det_in_place : t -> Zint.t
(** {!det} on a scratch matrix that it overwrites (its rows are
    permuted and reduced): the one exception to immutability, for a
    caller that refills one matrix per determinant.  Entries that fit
    a native int stay immediate, so it allocates nothing unless an
    intermediate passes 62 bits.
    @raise Invalid_argument on a non-square matrix. *)

val rank : t -> int

val minor : t -> int -> int -> Zint.t
(** [minor m i j] is the determinant of [m] with row [i] and column [j]
    deleted. *)

val cofactor : t -> int -> int -> Zint.t
val adjugate : t -> t
(** Adjugate (classical adjoint): [mul m (adjugate m) = det m * I]. *)

val is_unimodular : t -> bool
(** Square, integral (trivially) and determinant ±1. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
