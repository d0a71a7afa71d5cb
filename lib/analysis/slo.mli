(** SLO-style scoring: how production schedulers are judged.

    The harness measures the paper's objective, the competitive ratio
    OPT/ALG.  A serving system is graded on service-level objectives
    instead; this module computes five of them, streamingly, from
    engine events:

    - {b deadline-violation rate} — expired / submitted;
    - {b sustained throughput} — served / rounds elapsed;
    - {b ANTT} — average normalized turnaround time: mean over served
      requests of [service - arrival + 1] (1.0 = always served on
      arrival; the Dysta scheduler's fairness metric, normalised here
      by the 1-round service time of this model);
    - {b max delay factor} — Chekuri–Moseley's [max (t - a + 1) / D]
      over served requests, adapted to the hard-drop model: an expired
      request contributes [(D + 1) / D], one full window plus the round
      that killed it, so any expiry pushes the factor above 1;
    - {b machines needed} — Kao et al.'s machine-minimization lower
      bound: [max over intervals ceil (N (t1, t2) / (t2 - t1 + 1))]
      where [N (t1, t2)] counts requests whose whole window lies in
      [t1 .. t2] — how many copies of the cluster the workload demands
      even offline.

    Exactness discipline: the accumulator keeps integer sums and exact
    rational maxima and divides only inside {!scores}, so the streaming
    path and a batch recomputation from a full outcome log agree to the
    last bit ({!of_outcome} is that independent recomputation; the
    differential suite pins them equal on hundreds of instances). *)

type scores = {
  submitted : int;
  served : int;
  expired : int;   (** terminal, unserved — [served + expired <= submitted],
                       equal once every window has closed *)
  rounds : int;
  violation_rate : float;  (** expired / submitted; 0 on empty *)
  throughput : float;      (** served / rounds; 0 before any round *)
  antt : float;            (** mean turnaround of served; [nan] if none *)
  max_delay_factor : float;
      (** max over terminal requests; [nan] if none terminal *)
  machines_needed : int;
      (** offline lower bound on parallel machines; counts every
          window {e closed so far}, 0 on empty *)
}

(** {1 Streaming accumulator}

    Feed engine events as they happen: {!on_submit} at admission,
    {!on_serve} / {!on_expire} as {!Sched.Engine.Live.step} reports
    them, {!on_round} after each step.  [scores] may be read at any
    time — every metric is well-defined mid-stream.

    {b Contract}: ids are strictly ascending across {!on_submit} calls
    (as {!Sched.Engine.Live.submit} issues them) and each request is
    admitted into the round in progress.  On that contract the state
    is bounded by the open window, not by the run: pending requests sit
    in an id-indexed ring spanning the ids from the oldest pending one
    to the newest (gaps in the ids count towards that span), and the
    machines-needed bound keeps per-arrival-round counts for the rounds
    with open windows plus a pruned convex hull (DESIGN §4.11).  Each
    event is O(1) amortised; {!on_round} costs O(open rounds + log hull). *)

type t

val create : unit -> t

val on_submit : t -> id:int -> round:int -> deadline:int -> unit
(** Record an admission into [round], which must be the round in
    progress (the number of {!on_round} calls so far).
    @raise Invalid_argument on an id not above every earlier one
    (a duplicate included), on another round, or on [deadline < 1]. *)

val on_serve : t -> id:int -> round:int -> unit
(** Record a first service. @raise Invalid_argument on an unknown id
    (never submitted, or already served or expired). *)

val on_expire : t -> id:int -> round:int -> unit
(** Record a window closing unserved. @raise Invalid_argument on an
    unknown id (never submitted, or already served or expired). *)

val on_round : t -> unit
(** The round just executed is complete (all of its serve/expire events
    delivered).  Advances the clock and folds newly-closed windows into
    the machines-needed bound. *)

val scores : t -> scores

(** {1 Batch oracle} *)

val of_outcome : Sched.Outcome.t -> scores
(** The same five objectives recomputed {e independently} from a full
    outcome log: direct loops over [served_at] and the instance, no
    shared accumulator code (machines-needed by the direct O(h{^2})
    double loop over intervals).  Equals the streaming scores exactly
    when the stream saw the same run ([rounds = horizon]). *)

(** {1 One-pass scored run} *)

type streamed = {
  scores : scores;
  opt : int;            (** offline optimum of the full instance *)
  final_ratio : float;  (** OPT / served, guarded as {!ratio_of} *)
  anytime_ratio : float;
      (** worst prefix ratio over all rounds — the anytime guarantee *)
}

val ratio_of : opt:int -> served:int -> float
(** The competitive ratio [opt / served] with the degenerate cases made
    explicit: [1.0] when both are zero (vacuously competitive),
    [infinity] when the algorithm served nothing against a positive
    optimum.  Every ratio the reports print goes through this — a naive
    [opt /. max 1 served] silently reports [opt] itself for a strategy
    that served nothing. *)

val score_stream :
  ?metrics:Obs.Metrics.t ->
  Sched.Instance.t -> Sched.Strategy.factory -> streamed
(** Drive a live engine and a streaming-OPT tracker over the instance
    in one pass, feeding this accumulator from the engine's own event
    stream — SLO scores and anytime ratio together, without a recorded
    outcome. *)

(** {1 Export through lib/obs} *)

val record : ?prefix:string -> Obs.Metrics.t -> scores -> unit
(** Publish the scores as gauges [<prefix>.violation_rate],
    [.throughput], [.antt], [.max_delay_factor], [.machines_needed]
    and counters [.submitted], [.served], [.expired], [.rounds].
    [prefix] defaults to ["slo"].  NaN-valued metrics are skipped. *)

(** {1 Score modes (CLI)} *)

type mode = Ratio | Violation | Throughput | Antt | Delay | Machines

type selector = All | One of mode
(** What [--score] asks for: one objective, or the full SLO block. *)

val selector_names : string list
(** Accepted [--score] arguments, ["ratio"] … ["slo"]. *)

val selector_of_name : string -> (selector, string) result
val selector_to_name : selector -> string

val mode_label : mode -> string
(** Short column header, e.g. ["viol%"]. *)

val mode_cell : mode -> ratio:float -> scores -> string
(** Render one objective as a table cell ("-" for NaN). *)

val pp_scores : Format.formatter -> scores -> unit
(** Multi-line human-readable block, one metric per line. *)
