(** Metric snapshot exporters: a text table and line-oriented JSON.

    The JSON form is lossless for counters, gauges and histogram moments
    (floats print as [%.17g]); {!of_json} inverts it exactly, which the
    test-suite pins with round-trip properties.  Non-finite floats
    appear as quoted [nan]/[inf] tokens.  Histograms export their
    Welford moments (count, mean, m2, min, max), not raw
    observations. *)

type format = Text | Json

val format_of_string : string -> (format, string) result
(** Parses ["text"] and ["json"]. *)

val format_name : format -> string

val table : Metrics.snapshot -> Prelude.Texttable.t
(** Human-readable table: one row per metric. *)

val to_json : Metrics.snapshot -> string
(** One flat JSON object per line, e.g.
    [{"name":"engine.served","kind":"counter","value":412}]. *)

val of_json : string -> Metrics.snapshot
(** Inverse of {!to_json}.  @raise Failure on malformed input. *)

val render : format -> Metrics.snapshot -> string

val output : ?path:string -> format -> Metrics.snapshot -> unit
(** {!render} to stdout, or to [path] when given. *)
