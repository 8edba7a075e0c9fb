(** Structural fingerprints of branch sites and whole programs.

    The IFPROB database keys its counters by site index, and site indices
    are an artefact of one particular compile: edit the source, recompile,
    and every index after the edit shifts — the classic "profile from a
    previous version of the program" hazard.  This module computes
    identities that survive recompilation:

    - a {b site fingerprint} built from the branch's CFG context (source
      label stem, comparison shape of the condition, loop depth, dominator
      depth, direction) rather than its index, so counters recorded
      against an old build can be re-attached to the matching sites of a
      new build;
    - a {b program fingerprint}, a 64-bit hash of the whole compiled
      image, stored in the database header so that staleness is detected
      instead of silently mis-feeding counters into the wrong branches. *)

type site_fp = {
  fp_func : string;  (** enclosing function name *)
  fp_label : string;  (** full source label, e.g. ["main#12:while"] *)
  fp_stem : string;  (** label with the per-function statement counter
                         stripped, e.g. ["while"] — stable under edits
                         elsewhere in the function *)
  fp_cmp : string;  (** comparison shape of the condition definition
                        ("lt", "fge", ...), ["?"] when untraceable *)
  fp_loop_depth : int;  (** natural-loop nesting depth of the branch *)
  fp_dom_depth : int;  (** depth of the branch block in the dominator
                           tree *)
  fp_backward : bool;  (** taken target at or before the branch pc *)
  fp_ordinal : int;  (** index among the function's sites that share the
                         same (stem, cmp, loop depth, direction) class,
                         in site order — disambiguates clones *)
}

val site_fingerprints : Fisher92_ir.Program.t -> site_fp array
(** One fingerprint per branch site of the program. *)

val site_key : site_fp -> string
(** Render a fingerprint as a single line (no newlines) — the form the
    v2 database's sitemap section stores. *)

val site_keys : Fisher92_ir.Program.t -> string array

val match_key : string -> string
(** The matching form of a key: the dominator-depth component is dropped,
    because inserting one early branch shifts the dominator depth of
    everything after it while leaving the sites themselves unchanged.
    Match keys are unique within one program by construction (the ordinal
    numbers the members of a class). *)

val program_hash : Fisher92_ir.Program.t -> string
(** 16-hex-digit FNV-1a hash of the whole compiled image: functions,
    every instruction with its operands and constants, array
    declarations, the indirect-call table and the site table.  Two
    compiles of the same source hash equal; any change to the image,
    including a constant-only edit, changes it.  The study cache, the
    trace store and the profile database's staleness check key on it. *)
