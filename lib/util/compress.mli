(** Byte-level compression standing in for the Gzip stage of the paper's
    transport (§5.1). A self-contained LZ77 with a greedy hash-chain
    matcher: exact roundtrip, deterministic output, and compression ratios
    in the same regime as gzip on the repetitive row encodings produced by
    OLTP write sets. *)

val compress : bytes -> bytes
(** Never fails. The output of an [n]-byte input is at most [2n + 10]
    bytes: a length prefix, then 2 bytes per unmatched input byte, so
    incompressible input roughly doubles. *)

val decompress : bytes -> bytes
(** Inverse of {!compress}. Raises [Invalid_argument] on data not
    produced by {!compress}. *)
