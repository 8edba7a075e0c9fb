(** Distribution of instruction-run lengths between breaks in control.

    The paper (§3, "ILP compilers will get larger candidate sets than
    this") points out that the *distribution* of runs matters, not just
    the mean: "far more ILP will be available if one has 80 instructions
    followed by two mispredicted branches than if one has 40 instructions,
    a mispredicted branch ... Branches in real programs are not evenly
    spaced."  This module summarizes the power-of-two gap histogram the
    VM records when run with a prediction. *)

type summary = {
  g_count : int;  (** gaps observed *)
  g_mean : float;  (** mean gap (instructions per break) *)
  g_median : float;  (** histogram-interpolated median *)
  g_p90 : float;  (** 90th percentile *)
  g_skew : float;  (** mean / median; > 1 means long runs hide behind a
                       small typical gap — the paper's point *)
}

val summarize : Fisher92_vm.Vm.result -> summary
(** Summarize a run executed with [config.predicted] set.
    All-zero when the run recorded no gaps. *)

val summarize_histogram : count:int -> sum:int -> int array -> summary
(** The same summary from a run's recorded [gap_count], [gap_sum] and
    [gap_histogram] (as the study cache keeps them). *)

val bucket_bounds : int -> int * int
(** [bucket_bounds b] is the inclusive-exclusive gap range of histogram
    bucket [b], i.e. [(2^b, 2^(b+1))]. *)
