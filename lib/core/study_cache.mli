(** On-disk cache of executed (program, dataset) measurements.

    A study run is a pure function of the compiled program and the
    dataset bytes, so its {!Fisher92_metrics.Measure.run} record can be
    reused across processes.  Entries are keyed by the program's
    {e structural fingerprint} ({!Fisher92_analysis.Fingerprint.program_hash},
    which changes whenever a recompile moves, adds or removes a branch
    site), an FNV-1a hash of the full dataset contents, and the cache
    format version — so editing a workload, changing a dataset, or
    upgrading the format each miss cleanly instead of serving stale
    counters.

    The format follows the profile database's v2 conventions: sized
    strings, per-section FNV-1a checksums, atomic temp-file + rename
    writes.  A corrupt, truncated, or version-mismatched entry is never
    trusted: {!lookup} returns [None] and the pair is recomputed.

    Environment:
    - [FISHER92_CACHE_DIR] overrides the location (default
      [_build/.fisher92-cache/] under the current directory);
    - [FISHER92_NO_CACHE=1] disables both lookup and store. *)

val enabled : unit -> bool
(** False when [FISHER92_NO_CACHE] is set to anything but ["0"] or
    [""]. *)

val dataset_hash : Fisher92_workloads.Workload.dataset -> string
(** 16-hex-digit FNV-1a over the dataset's name, arguments, and every
    seeded array's contents. *)

val lookup :
  fingerprint:string ->
  n_sites:int ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  Fisher92_metrics.Measure.run option
(** The cached measurement for this exact (program build, dataset) pair,
    or [None] when absent, damaged, or recorded against a different
    build ([fingerprint]), site count, or dataset contents.  Never
    raises. *)

val store :
  fingerprint:string ->
  Fisher92_workloads.Workload.dataset ->
  Fisher92_metrics.Measure.run ->
  unit
(** Persist one measurement (atomic write).  Best-effort: an unwritable
    cache directory is ignored, never fatal. *)
