(** Compact binary encoding used to serialize write sets and protocol
    messages. Sizes measured on these encodings feed the WAN-traffic
    accounting (paper Table 3). *)

(** {1 Encoding} *)

module Enc : sig
  type t

  val create : unit -> t

  val clear : t -> unit
  (** Empty the encoder but keep its storage, so a reused encoder stops
      growing once it has held its largest stream. *)

  val length : t -> int
  val to_bytes : t -> bytes

  val digest : t -> Digest.t
  (** MD5 of the contents, hashed in place: unlike
      [Digest.bytes (to_bytes t)] it copies nothing. *)

  val byte : t -> int -> unit
  (** Low 8 bits. *)

  val varint : t -> int -> unit
  (** LEB128, non-negative integers only; raises [Invalid_argument] on a
      negative argument. *)

  val zigzag : t -> int -> unit
  (** Signed integers via zigzag + LEB128. *)

  val float : t -> float -> unit
  (** 8-byte IEEE754 little endian. *)

  val string : t -> string -> unit
  (** Length-prefixed. *)

  val raw : t -> string -> unit
  (** Append bytes verbatim, no length prefix — for splicing an
      already-encoded fragment into a stream. *)

  val bool : t -> bool -> unit
end

(** {1 Decoding} *)

module Dec : sig
  type t

  exception Truncated
  (** Raised when reading past the end of input or on malformed data. *)

  val of_bytes : bytes -> t
  val pos : t -> int
  val at_end : t -> bool
  val byte : t -> int
  val varint : t -> int
  val zigzag : t -> int
  val float : t -> float
  val string : t -> string
  val bool : t -> bool

  val sub_string : t -> pos:int -> len:int -> string
  (** Copy out a slice of the underlying input without advancing the
      cursor — for capturing the exact wire form of a decoded span. *)
end
