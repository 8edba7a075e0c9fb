(** Order statistics over timing samples. *)

type pct = {
  p : int;  (** the percentile, 1..100 *)
  value : float;
  n : int;  (** samples the percentile was taken over *)
  beyond : int;  (** samples ranked above it *)
}

val min_beyond : int
(** A percentile is reported only when at least this many samples (10)
    lie beyond it, so that a "p99" of 64 samples (the maximum) is never
    published. *)

val rank : p:int -> int -> int
(** [rank ~p n] is the 1-based nearest rank of the [p]-th percentile of
    [n] samples: the smallest [r] with [r >= p * n / 100]. *)

val percentile : p:int -> float array -> pct option
(** Nearest-rank percentile of an ascending array; [None] when fewer
    than {!min_beyond} samples lie beyond it, or [p] is outside
    1..100. *)

val median : float list -> float
(** The middle value (mean of the middle two for an even count).
    @raise Invalid_argument on the empty list. *)
