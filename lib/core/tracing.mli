(** Glue between the branch-trace subsystem ({!Fisher92_trace.Trace})
    and the study: key computation, capture through the VM's
    [on_branch] hook, the load-or-record store round-trip, and the
    parallel cold/warm replay fan-out behind the study's one shared
    trace replay ({!Experiments.replay}).

    Keys mirror {!Study_cache}: the workload name, the structural
    {!Fisher92_analysis.Fingerprint.program_hash} of the measured build,
    and the FNV-1a dataset-contents hash — so a recompiled program or a
    regenerated dataset silently invalidates its stored traces. *)

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
  rc_cold : Dynamic.t;  (** simulated from cold state *)
  rc_warm : Dynamic.t;  (** simulated from profile-warmed state *)
}

val tournament_study :
  ?domains:int ->
  ?store:bool ->
  schemes:Dynamic.scheme list ->
  Study.t ->
  (Study.loaded * obtained * raced list) list
(** For every loaded workload: obtain the trace of its {e first}
    dataset and replay it, in one decode, through two simulators per
    scheme — one cold, one seeded with {!warm_prediction} — on the
    batched run-level path ({!Trace.Reader.iter_runs} into
    {!Dynamic.hook_batch}, bit-identical to streaming replay).  Fans
    the per-workload work over a {!Fisher92_util.Pool}; results are
    merged by index, so the output is deterministic and identical to a
    sequential run.  Not memoized: {!Experiments.replay} is the
    memoized per-study call the experiments read. *)
