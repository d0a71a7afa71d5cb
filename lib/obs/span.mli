(** Span timing on the monotonic clock, feeding {!Metrics} histograms.

    Spans are plain start stamps — no allocation, safe to take in any
    domain.  The sink is a {!Metrics} registry, whose mutex makes
    concurrent [finish] calls from several domains safe.  The clock is
    [CLOCK_MONOTONIC] (through [bechamel.monotonic_clock]), so a
    wall-clock step neither reverses nor stretches an interval. *)

val now : unit -> float
(** Seconds on the monotonic clock (from an arbitrary origin).  Exposed
    so other layers (e.g. {!Prelude.Parmap} instrumentation) can share
    the same clock. *)

type span

val start : unit -> span

val diff : span -> span -> float
(** [diff t0 t1]: seconds from [t0] to [t1]. *)

val elapsed : span -> float
(** Seconds since [start]; never negative. *)

val finish : Metrics.t -> string -> span -> unit
(** [finish m name span] observes {!elapsed} into histogram [name]. *)

val record : Metrics.t option -> string -> span -> unit
(** {!finish} when a registry is present; no-op otherwise. *)

val time : Metrics.t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, observing its duration (even on exceptions). *)
