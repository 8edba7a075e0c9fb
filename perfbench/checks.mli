(** Output checks shared by every workload.  Each returns the ids that
    failed, so a caller can both count failures and name them. *)

val read_file : string -> string

val golden_mismatches : dir:string -> (string * string) list -> string list
(** [golden_mismatches ~dir sections] compares every rendered
    [(id, text)] byte for byte with [dir/<id>.txt].  A section without a
    golden file, a differing byte, and a golden file with no rendered
    section each report that id. *)

val digests : (string * string) list -> (string * string) list
(** [(id, text)] to [(id, hex MD5 of text)]. *)

val digest_mismatches :
  reference:(string * string) list -> (string * string) list -> string list
(** Ids whose digest differs from [reference], or that appear on one
    side only. *)

val cache_mismatch :
  cold:bool -> expected:int -> hits:int -> misses:int -> string option
(** A suite run over [expected] study runs must miss every one on empty
    stores ([cold]) and hit every one on filled stores; otherwise a line
    saying what it did. *)

type entry = { path : string; size : int; mtime : float; inode : int }

val snapshot : string -> entry list
(** Every file under a directory (recursively, sorted), with what a
    rewrite changes: an atomic replace gets a new inode and mtime.  A
    missing directory has no files. *)

val store_files : suffix:string -> entry list -> int
(** How many of the files end in [suffix]. *)
