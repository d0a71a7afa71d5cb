(** Named metrics: counters, gauges and histograms.

    A registry binds metric names to slots; instrumented subsystems
    record into them, and the harness exports a {!snapshot} at the end
    of a run ({!Export}).  Histograms are {!Prelude.Stats} accumulators,
    so per-domain registries merge exactly ({!merge} uses
    [Stats.merge]) — the property the observability test-suite pins:
    recording a workload into [k] registries and merging equals
    recording it into one.

    {b Handles.}  A name is bound to its slot once, by
    {!register_counter}, {!register_gauge} or {!register_histogram},
    and every later update goes through the returned handle without
    looking the name up.  A counter is an [int Atomic.t]: {!add} is one
    fetch-and-add — no lock, no hash, no allocation — and stays exact
    when several domains share the registry.  {!put} and {!record} take
    the registry's mutex (a histogram's fields move together) but hash
    and allocate nothing.  The by-name functions ({!incr}, {!set},
    {!observe}) look the handle up under the mutex and then do the
    handle operation, so hot paths register once and keep the handle.

    A slot appears in snapshots once it has been recorded into: binding
    a handle alone adds nothing to the dumps.

    Dotted lower-case names ([subsystem.metric], e.g.
    ["engine.served"]) keep exports greppable; names must not contain
    double quotes, backslashes or control characters (the JSON exporter
    writes names with OCaml's escaping, which agrees with JSON only on
    plain text). *)

type t
(** A metric registry, safe to share across domains. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Prelude.Stats.t

type snapshot = (string * value) list
(** Immutable copy of a registry's contents, sorted by name.  The
    [Stats.t] payloads are private copies. *)

val create : unit -> t

(** {2 Handles} *)

type counter
type gauge
type histogram

val register_counter : t -> string -> counter
(** The counter bound to the name, binding a fresh one (at 0) if the
    name is unbound.
    @raise Invalid_argument if the name is bound to another kind. *)

val register_gauge : t -> string -> gauge
(** As {!register_counter}, for a gauge. *)

val register_histogram : t -> string -> histogram
(** As {!register_counter}, for a histogram. *)

val add : counter -> int -> unit
(** Add to the counter (the amount may be negative or 0; either way the
    counter appears in the next snapshot).  Lock-free and
    allocation-free. *)

val put : gauge -> float -> unit
(** Set the gauge. *)

val record : histogram -> float -> unit
(** Fold one observation into the histogram. *)

(** {2 By name} *)

val incr : ?by:int -> t -> string -> unit
(** Add [by] (default 1; may be negative) to a counter, creating it at
    [by] if absent.
    @raise Invalid_argument if the name is bound to another kind. *)

val set_counter : t -> string -> int -> unit
(** Overwrite a counter (used by reset shims). *)

val counter : t -> string -> int
(** Current counter value; [0] if absent. *)

val set : t -> string -> float -> unit
(** Set a gauge to the given value, creating it if absent. *)

val gauge : t -> string -> float
(** Current gauge value; [nan] if absent or not set since binding or
    {!clear}. *)

val observe : t -> string -> float -> unit
(** Fold one observation into a histogram, creating it if absent. *)

val histogram : t -> string -> Prelude.Stats.t option
(** Copy of a histogram's accumulator; [None] if absent or not recorded
    into since binding or {!clear}. *)

val snapshot : t -> snapshot

val clear : t -> unit
(** Zero every metric: counters to 0, gauges unset, histograms empty,
    and none of them in the next snapshot until recorded into again.
    Names stay bound to their kinds and handles stay attached: an update
    through a handle taken before [clear] shows in later snapshots.
    Meant between runs, not while other domains update. *)

val merge : snapshot -> snapshot -> snapshot
(** Union by name: counters and gauges add, histograms combine via
    {!Prelude.Stats.merge}.
    @raise Invalid_argument when one name is bound to two kinds. *)

val merge_all : snapshot list -> snapshot
(** Left fold of {!merge}; [[]] on the empty list. *)

val merge_into : t -> snapshot -> unit
(** Fold a snapshot into a live registry (same semantics as {!merge}). *)

(** {2 Ambient registry}

    The CLI and bench set one process-wide registry before running;
    instrumented subsystems whose [?metrics] argument is omitted fall
    back to it (and record nothing when it is unset, the default).  Set
    it before spawning domains and leave it alone afterwards. *)

val set_ambient : t option -> unit
val ambient : unit -> t option

val resolve : t option -> t option
(** [resolve metrics] is [metrics] if [Some], else {!ambient}[ ()] — the
    lookup every instrumented module performs once per run or call. *)
