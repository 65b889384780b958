(** SQL values stored in rows and manipulated by the expression
    evaluator. *)

type t = Null | Int of int | Float of float | Str of string

val compare : t -> t -> int
(** Total order: Null < Int/Float (numeric, compared by value) < Str.
    Ints and floats compare numerically against each other so that SQL
    comparisons behave as expected. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val type_name : t -> string

val is_truthy : t -> bool
(** SQL-ish truthiness: NULL and 0 are false. *)

val encode : Gg_util.Codec.Enc.t -> t -> unit
val decode : Gg_util.Codec.Dec.t -> t

val encode_row : t array -> bytes
val decode_row : bytes -> t array

val encode_key : t array -> string
(** Compact unique encoding of a primary key (not order-preserving; used
    as a hash key): byte-for-byte what {!encode} writes for each column in
    turn, built in one exactly-sized string. *)
