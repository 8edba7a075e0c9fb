(** Glue between the branch-trace subsystem ({!Fisher92_trace.Trace})
    and the study: key computation, capture through the VM's
    [on_branch] hook, the load-or-record store round-trip, and the
    predictor races the experiments read: the cached per-workload path
    ({!races}, behind {!Experiments.replay} and the synthetic pool's
    characterization) and the uncached replay it is checked against
    ({!tournament_study}).

    Keys mirror {!Study_cache}: the workload name, the
    {!Fisher92_analysis.Fingerprint.program_hash} of the measured build
    (a hash of the whole compiled image), and the FNV-1a
    dataset-contents hash — so a recompiled program or a regenerated
    dataset silently invalidates its stored traces and races. *)

module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic

type obtained = {
  reader : Trace.Reader.t;
  from_store : bool;  (** served from the on-disk store, not re-executed *)
}

val record :
  ir:Fisher92_ir.Program.t ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  Trace.Writer.t
(** Execute the dataset once with a trace writer attached to
    [on_branch].  Does not touch the store. *)

val obtain :
  ?store:bool ->
  ir:Fisher92_ir.Program.t ->
  program:string ->
  Fisher92_workloads.Workload.dataset ->
  obtained
(** The trace for this (build, dataset) key: loaded from the store when
    present and intact, otherwise captured by running the VM (and saved
    back, best-effort).  [~store:false] bypasses the store in both
    directions.  The replayed stream is identical either way. *)

val warm_prediction : Study.loaded -> Fisher92_predict.Prediction.t
(** The profile-warming vector for a workload: an IFPROB database built
    from {e all} of its datasets' profiles (identity stamped with the
    build's fingerprint and site keys), pulled through the
    {!Fisher92_predict.Remap} degradation chain — so the exact tier
    serves here, and the same call on a stale database would degrade
    through remapped/proof/heuristic tiers instead of crashing. *)

type raced = {
  rc_scheme : Dynamic.scheme;
  rc_cold : Dynamic.tally;  (** replayed from cold state *)
  rc_warm : Dynamic.tally option;
      (** replayed from profile-warmed state; [None] for a [cold_only]
          scheme *)
}

val races :
  ?cache:bool ->
  ?cold_only:Dynamic.scheme list ->
  schemes:Dynamic.scheme list ->
  Study.loaded ->
  raced list
(** The races of one loaded workload over the trace of its {e first}
    dataset: every scheme in [cold_only] (default none) from cold, then
    every scheme in [schemes] from cold and seeded with
    {!warm_prediction}, in that order.  Each race is looked up in the
    study cache ({!Study_cache.find_race}); only when some race misses
    is the trace obtained ({!obtain}), and then just the
    missing races are replayed, in one shared decode, and saved.  A warm
    cache therefore decodes no trace and runs no VM.  [~cache:false]
    (or [FISHER92_NO_CACHE]) replays every race and saves none.  The
    tallies are identical either way.
    @raise Invalid_argument on a [Static] scheme while the cache is on:
    its prediction is not part of any key. *)

val tournament_study :
  ?domains:int ->
  ?store:bool ->
  schemes:Dynamic.scheme list ->
  Study.t ->
  (Study.loaded * obtained * raced list) list
(** The uncached replay: for every loaded workload, obtain the trace of
    its {e first} dataset and replay it, in one decode, through two
    simulators per scheme (one cold, one seeded with
    {!warm_prediction}) on the batched run-level path
    ({!Trace.Reader.iter_runs} into {!Dynamic.hook_batch},
    bit-identical to streaming replay), never reading or writing the
    study cache.  Fans the per-workload work over a
    {!Fisher92_util.Pool}; results are merged by index, so the output is
    deterministic and identical to a sequential run.  Tests difference
    cached races against it. *)
