(** 64-bit FNV-1a hashing.

    The resilient database format and the program fingerprints need a
    cheap, dependency-free, stable-across-runs hash.  FNV-1a is not
    cryptographic — it defends against accidental corruption (bit rot,
    truncation, editor mangling), not against an adversary, which is all
    a local profile database needs. *)

val seed : int64
(** The FNV-1a offset basis. *)

val fold : int64 -> string -> int64
(** Mix a string into a running hash (byte by byte).  Allocates nothing
    per byte. *)

val fold_decimal : int64 -> int -> int64
(** [fold_decimal h k = fold h (string_of_int k)], without building the
    string. *)

val fold_hex64 : int64 -> int64 -> int64
(** [fold_hex64 h x = fold h (Printf.sprintf "%Lx" x)], without
    building the string. *)

val hash : string -> int64
(** [fold seed s]. *)

val hash_strings : string list -> string
(** Hash a list of strings (each terminated, so that ["ab";"c"] and
    ["a";"bc"] differ) and render as 16 lowercase hex digits. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits. *)

val hex : string -> string
(** [to_hex (hash s)] — the checksum form the database file stores. *)
