(** The workload zoo: production-shaped traffic families.

    The paper's introduction motivates two-choice request scheduling
    with exactly the traffic the adversarial constructions do not
    cover: hot items whose popularity drifts, video-on-demand bursts
    where many viewers demand the same replicated title at once,
    daily load curves, and plain sustained overload.  Each generator
    here is a {e seeded, deterministic} {!Sched.Instance.t} producer
    for one such family; the [zoo] experiment family scores every
    strategy on SLO-style objectives ({!Analysis.Slo}) across all of
    them.

    Determinism and the load knob.  Every random draw comes from a
    generator keyed by [(seed, family, round)] — never from one
    sequential stream — so:

    - equal parameters produce byte-identical instances (pinned via
      the {!Sched.Codec} round-trip by the property suite);
    - the per-round arrival count is [floor rate] plus a Bernoulli
      trial on the fractional part against a fixed uniform, which is
      monotone in [rate] for a fixed draw — so raising [load] never
      removes a request, it only appends ({e monotone load knob},
      also pinned by the property suite). *)

type family = {
  key : string;       (** registry name, e.g. ["hotspot"] *)
  label : string;     (** one-line display name *)
  synopsis : string;  (** what the family models *)
  default_load : float;
      (** the canonical load the zoo sweeps run the family at *)
  generate :
    n:int -> d:int -> rounds:int -> load:float -> seed:int ->
    Sched.Instance.t;
}

val hotspot :
  n:int -> d:int -> rounds:int -> load:float -> seed:int -> Sched.Instance.t
(** Zipf popularity over resources with a {e drifting} hot set: ranks
    map to resources through a rotation that re-randomises every
    [max 1 (rounds/6)] rounds, so the hot spot relocates several times
    per run and a scheduler cannot statically over-provision it.
    Alternatives are two distinct Zipf draws; deadlines are [d].
    @raise Invalid_argument on [n < 1], [d < 1], [rounds < 1], a
    negative or non-finite load, or [load * n * rounds] above
    {!Sched.Instance.max_generated} (every family checks the same). *)

val diurnal :
  n:int -> d:int -> rounds:int -> load:float -> seed:int -> Sched.Instance.t
(** Sinusoidal day curve: the arrival rate is
    [load * n * (1 + 0.75 sin)] over a period of [max 4 (rounds/2)]
    rounds (two "days" per run), uniform resource picks — peaks reach
    1.75x the mean, troughs 0.25x. *)

val vod :
  n:int -> d:int -> rounds:int -> load:float -> seed:int -> Sched.Instance.t
(** Correlated video-on-demand bursts: sessions start at a rate tuned
    so the mean load is [load]; each session picks a title from a Zipf
    catalogue, and {e every} request of the session carries that
    title's fixed two-replica set for its whole burst (1..2d rounds, a
    few viewers per round) — the correlated-alternatives pattern that
    makes replicated catalogues hard to balance. *)

val overload :
  n:int -> d:int -> rounds:int -> load:float -> seed:int -> Sched.Instance.t
(** Open-loop overload ramp: uniform traffic whose instantaneous rate
    climbs linearly from [load] to [2 load] across the horizon — at the
    family's canonical load 1.5 this is the 1.5x–3x overload regime the
    admission-control roadmap item is judged under. *)

val mix :
  n:int -> d:int -> rounds:int -> load:float -> seed:int -> Sched.Instance.t
(** Adversarial-then-benign phase mix: even phases open with a
    saturating burst on each adjacent resource pair (the shape of the
    paper's block constructions, half the requests on a tightened
    deadline), odd phases carry light uniform traffic — alternating
    drain pressure with recovery room. *)

val families : family list
(** The five families above, in display order. *)

val names : string list
(** [families] keys, in the same order. *)

val find : string -> family option

val generate :
  name:string -> n:int -> d:int -> rounds:int -> load:float -> seed:int ->
  (Sched.Instance.t, string) result
(** Generate by family key; [Error] on an unknown name or invalid
    parameter (never raises). *)

val chunked :
  family -> n:int -> d:int -> load:float -> seed:int -> chunk:int ->
  int -> Sched.Request.t array
(** [chunked f ~n ~d ~load ~seed ~chunk] is an endless arrival stream
    held [chunk] rounds at a time: rounds [k * chunk .. (k + 1) * chunk - 1]
    are the arrivals of [f]'s [chunk]-round instance for seed
    [seed + k], shifted by [k * chunk] rounds (ids stay those of the
    chunk's instance).  Apply it to rounds [0, 1, 2, ...] in order; a
    run of any length then holds one chunk, not the whole run.  A
    session (vod) ends with its chunk, and a ramp such as [overload]'s
    restarts with each chunk.
    @raise Invalid_argument if [chunk < 1], or from [f.generate]. *)
