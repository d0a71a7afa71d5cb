(** CSV export of instances, outcomes and experiment tables.

    The harness prints human-readable tables; this module writes the
    same data in machine-readable form so results can be analysed or
    plotted outside OCaml.  All writers escape per RFC 4180 (quotes
    doubled, fields with separators quoted) and end every record with
    ["\n"]. *)

val csv_of_table : Prelude.Texttable.t -> string
(** The header and data rows of a rendered table as CSV (rules are
    skipped; the title, if any, becomes a ["# ..."] comment line). *)

val csv_of_instance : Sched.Instance.t -> string
(** One row per request:
    [id,arrival,deadline,last_round,alternatives] with alternatives
    separated by ['|']. *)

val csv_of_outcome : Sched.Outcome.t -> string
(** One row per request:
    [id,arrival,deadline,served,resource,round,latency] (empty
    resource/round/latency for failed requests). *)

val decisions_of_outcome : Sched.Outcome.t -> string
(** One [t<round> sched@<id> S<resource>] line per served request,
    sorted by round then id: a decision log that is byte-comparable
    across runs and layouts. *)

val write_file : path:string -> string -> unit
(** Write a string to a file (truncating). *)
