(** On-disk cache of executed (program, dataset) measurements and of
    predictor races over their traces.

    A VM run without an [on_branch] hook is a pure function of the
    compiled image, the dataset bytes and the config fields that change
    what it records, so its result can be reused across processes.
    Every run the experiment suite makes goes through this cache: the
    study's runs of the measured build, and the ablation sections' runs
    of their own builds (global DCE, inlining, switch reordering, the
    stale-profile mutation, IFPROBBER instrumentation) and configs (gap
    tracking under a prediction, counter-array dumps).

    A {e race} (one predictor scheme, cold or profile-warmed, replayed
    over one run's branch trace) is a pure function of the trace and
    the scheme, so its tallies are cached the same way: every race the
    suite makes ([dynamic], [dynsim], [predictability], [tournament],
    [h2p] and [synthpool]'s characterization) is served from here once
    the cache is warm, and no trace is decoded (see {!race_key}).

    An entry is keyed by
    - the program name;
    - {!Fisher92_analysis.Fingerprint.program_hash}, a hash of the whole
      compiled image, so any recompile that changes the code, a constant
      included, misses;
    - {!dataset_hash}, over the full dataset contents;
    - for a run with a non-default config, a digest of its [predicted]
      bits and [dump_arrays] names.
    All of these are in the file name
    ([<program>.<fingerprint>.<dshash>[.<config>].run]) and are checked
    again against the entry's meta section.  Editing a workload,
    changing a dataset or a prediction, or upgrading the format each
    miss cleanly instead of serving stale counters.

    A run entry (format v2) holds the instruction counts and the branch
    profile, plus a [gaps] section (gap count, sum and histogram) when
    the config set [predicted], and one [dump] section (name and int
    cells) per name in [dump_arrays].  The format follows the profile
    database's conventions: sized strings, per-section FNV-1a checksums,
    atomic temp-file + rename writes.  A corrupt, truncated, or
    version-mismatched entry is never trusted: the lookup misses and the
    run is recomputed.

    Environment:
    - [FISHER92_CACHE_DIR] overrides the location (default
      [_build/.fisher92-cache/] under the current directory);
    - [FISHER92_NO_CACHE=1] disables both lookup and store. *)

val dataset_hash : Fisher92_workloads.Workload.dataset -> string
(** 16-hex-digit FNV-1a over the dataset's name, arguments, and every
    seeded array's contents. *)

(** {2 Entries} *)

type gaps = {
  gap_count : int;
  gap_sum : int;
  gap_histogram : int array;
}
(** The gap record of a run with [predicted] set, as
    {!Fisher92_vm.Vm.result} reports it. *)

type entry = {
  run : Fisher92_metrics.Measure.run;
  gaps : gaps option;  (** [Some] exactly when the config set [predicted] *)
  dumped : (string * int array) list;
      (** one per [dump_arrays] name, in order *)
}

type key
(** Where one run's entry lives and what it must contain. *)

val key :
  ?config:Fisher92_vm.Vm.config ->
  fingerprint:string ->
  n_sites:int ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  key
(** The key of one run of [program] (a build with this [fingerprint] and
    site count) on a dataset under [config] (default
    {!Fisher92_vm.Vm.default_config}).  Computes {!dataset_hash} once.
    @raise Invalid_argument when [config] carries an [on_branch] hook:
    a hooked run has effects the cache cannot replay. *)

val find : key -> entry option
(** The cached entry, or [None] when absent, damaged, or recorded under
    a different key.  Never raises. *)

val save : key -> entry -> unit
(** Persist one entry (atomic write).  Best-effort: an unwritable cache
    directory is ignored, never fatal. *)

(** {2 Plain runs} *)

val lookup :
  fingerprint:string ->
  n_sites:int ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  Fisher92_metrics.Measure.run option
(** [find] of a plain run's key: the cached measurement for this exact
    (program build, dataset) pair, or [None] when absent, damaged, or
    recorded against a different build, site count, or dataset
    contents.  Never raises. *)

val store :
  fingerprint:string ->
  Fisher92_workloads.Workload.dataset ->
  Fisher92_metrics.Measure.run ->
  unit
(** [save] of a plain run's entry. *)

(** {2 Race entries} *)

type race_key
(** Where one race's tallies live and what they must match. *)

val race_key :
  key ->
  ?warm:Fisher92_predict.Prediction.t ->
  Fisher92_predict.Dynamic.scheme ->
  race_key
(** [race_key k ?warm scheme]: the race of [scheme] over the trace of
    the plain run [k] (its program name, fingerprint, site count,
    dataset name and hash), from cold or, with [warm], from the state
    that prediction seeds.  The key adds
    {!Fisher92_predict.Dynamic.scheme_key}, which covers every scheme
    argument, and a digest of the [warm] bits (or ["cold"]).  The file
    name ([<program>.<fingerprint>.<dshash>.<digest>.race]) carries a
    digest of the scheme key and warm part; the entry's meta section
    repeats the whole key and is checked line for line.
    @raise Invalid_argument when [k] carries a config, or on a [Static]
    scheme. *)

val find_race : race_key -> Fisher92_predict.Dynamic.tally option
(** The cached tallies, or [None] when absent, damaged, recorded under
    another key, or inconsistent (a site out of range or repeated, or
    per-site counts that do not add up to the totals).  Declared counts
    are checked against the site count and the lines present before
    anything is allocated.  Never raises. *)

val save_race : race_key -> Fisher92_predict.Dynamic.tally -> unit
(** Persist one race (atomic write, best-effort like {!save}): the
    totals, then one [site correct incorrect] line per site with a
    tallied branch.
    @raise Invalid_argument when the per-site arrays do not have the
    key's site count. *)
