(** Streaming summary statistics.

    Welford's online algorithm for mean/variance plus min/max tracking;
    used by the experiment harness to aggregate per-run ratios, and by the
    benchmarks for timing summaries. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Fold one observation into the accumulator; allocates nothing. *)

val copy : t -> t
(** Independent accumulator with the same current state. *)

val reset : t -> unit
(** Return the accumulator to the state of {!create}. *)

val of_moments :
  count:int -> mean:float -> m2:float -> mn:float -> mx:float -> t
(** Rebuild an accumulator from its exported moments ({!count}, {!mean},
    {!m2}, {!min}, {!max}) — the inverse of serialising those fields, used
    by the observability layer's import paths.  [count = 0] yields a
    fresh empty accumulator regardless of the other fields.
    @raise Invalid_argument on a negative [count]. *)

val count : t -> int
val mean : t -> float
(** [nan] when empty. *)

val m2 : t -> float
(** Raw sum of squared deviations from the mean (Welford's [M2]); [0.0]
    when empty.  [variance t = m2 t /. (count t - 1)]. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
val max : t -> float

val ci95_halfwidth : t -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean ([1.96 * stddev / sqrt count]); [nan] with fewer than two
    observations. *)

val merge : t -> t -> t
(** Combine two accumulators as if all observations were added to one. *)

val absorb : t -> t -> unit
(** [absorb a b] folds [b] into [a] in place: afterwards [a] equals
    [merge a b] (the old [a]); [b] is unchanged. *)

val quantile : float array -> float -> float
(** [quantile data q] is the [q]-quantile ([0 <= q <= 1]) of [data] by
    linear interpolation on the sorted copy.
    @raise Invalid_argument on empty input. *)
