(** Exhaustive game-tree worst-case search over small configurations.

    The adversary DFS explores every drain-to-drain phase (see
    {!Game}): a child extends the state by one injection round strictly
    before the current drain round, so states never straddle a phase
    boundary, and the value of the game is the maximum {!Game.eval}
    ratio over all explored states.  Transposition pruning identifies
    states equal up to resource relabeling via {!Game.canonical_key};
    because the key encodes the full request multiset, two states with
    one key always have the same spent budget, so the memo is exact as
    a visited-filter.  Its only theoretical slack is that the
    strategies' tie-breaking need not be relabeling-equivariant — a
    pruned sibling could in principle score differently — which can
    only {e hide} a maximum, never fabricate one: every reported value
    is re-verified by {!Certificate.check} before it is trusted.

    Child moves are enumerated in a fixed order that is prefix-stable
    in the remaining budget ({!Move.multisets}), which makes the search
    value monotone in [budget] — the property the qcheck suite pins. *)

type config = {
  n : int;                  (** resources, [1..4] *)
  d : int;                  (** nominal deadline, [1..3] *)
  budget : int;             (** total requests per phase, [1..6] *)
  per_round : int;          (** max requests injected per round *)
  k : int;                  (** max alternatives per request, [1..2] *)
  deadlines : int list;     (** deadline palette (default [[d]]) *)
  tags : Move.tag list;     (** tag palette *)
}

val config :
  ?budget:int -> ?per_round:int -> ?k:int -> ?deadlines:int list ->
  ?tags:Move.tag list -> n:int -> d:int -> unit -> config
(** Defaults: [budget = 4], [per_round = 4], [k = min 2 n],
    [deadlines = [d]], [tags = [Neutral; Late; Early] @ Prefer 0..n-1].
    Uniform deadlines keep the paper's upper bounds applicable to every
    explored state. *)

type found = {
  ratio : Prelude.Rat.t;
  opt : int;
  alg : int;
  prefix : Game.prefix;     (** the witness state *)
}

type result = {
  strategy : Game.strategy;
  cfg : config;
  best : found option;      (** [None] only for a zero-size tree *)
  nodes : int;              (** states evaluated *)
  transpositions : int;     (** states skipped by the memo *)
  disagreements : Game.prefix list;
      (** states where kernel and rebuild schedules differed *)
}

val run : ?metrics:Obs.Metrics.t -> strategy:Game.strategy -> config -> result
(** Search one strategy.  Records [search.nodes] and
    [search.transpositions] (plus the per-eval metrics of
    {!Game.evaluate}).
    @raise Invalid_argument on a configuration outside the bounds
    documented in {!type:config} — larger instances belong to the
    {!Attacker} tier. *)

val check : config -> (unit, string) Stdlib.result
(** [Error] with {!run}'s [Invalid_argument] message when [run] would
    refuse the configuration, so a caller can reject it before any
    search starts. *)

val certificate : result -> Certificate.t option
(** Certificate of the best found state. *)

(** {2 Table-1 comparison} *)

val table1_lb : d:int -> string -> Prelude.Rat.t option
(** The Table-1 lower bound for a paper strategy name, [None] where the
    paper leaves it undefined (including every strategy at [d = 1],
    where all five are per-round optimal and the true value is 1). *)

val verdict : d:int -> strategy_name:string -> Prelude.Rat.t -> string
(** One human line classifying a found ratio against Table 1:
    rediscovered the lower bound exactly / trivial [d = 1] bound /
    below the bound (horizon too small) / strictly between the bounds
    (a construction better than the published one — legitimate, lower
    bounds are only bounds) / above the {e upper} bound (impossible:
    the transcription of the strategy or of the bound must be wrong;
    the line starts with ["EXCEEDS"] and the CLI turns it into a
    failing exit). *)

val golden_table : ?budget:int -> n:int -> ds:int list -> unit -> string
(** The committed snapshot: one row per (d, strategy) with the found
    ratio, witness accounting, node counts and the Table-1 verdict,
    rendered with {!Prelude.Texttable}.  Regenerate with
    [reqsched search --budget exhaustive --strategy all --golden]. *)
