(** Scheduling instances: a finite workload over [n] resources.

    An instance fixes the resource count, the nominal deadline [d] the
    strategies parameterise their windows with (individual requests may
    carry smaller deadlines), and the full request sequence.  The online
    engine reveals requests round by round; the offline solvers see the
    whole instance. *)

type t = private {
  n_resources : int;
  d : int;                              (** nominal (maximum) deadline *)
  requests : Request.t array;           (** [requests.(i).id = i] *)
  arrivals_by_round : int array array;  (** round -> request ids arriving *)
  horizon : int;
      (** number of rounds: every service happens in [0 .. horizon-1] *)
}

val build : n_resources:int -> d:int -> Request.t list -> t
(** Renumber the given request protos in list order (stable for equal
    arrivals, matching the paper's per-round request identifiers) and
    index them by round.
    @raise Invalid_argument if a request names a resource
    [>= n_resources], has [deadline > d], or the list is out of arrival
    order. *)

val max_generated : int
(** The largest expected request count, [load * n * rounds], that the
    workload generators ([Workload.Zoo], [Adversary.Random_workload])
    accept: 10 000 000, far above any size the tests, experiments,
    examples and benchmarks use (the largest is about 2 * 10^5), so a
    mistyped [--load] is refused at once instead of building an
    instance that does not fit in memory. *)

val n_requests : t -> int

val arrivals_at : t -> int -> Request.t array
(** Requests arriving at the given round, in id order, in a fresh array
    (empty outside the horizon). *)

val total_slots : t -> int
(** [n_resources * horizon]: capacity of the whole schedule. *)

val slot_index : t -> resource:int -> round:int -> int
(** Dense encoding of time slot (resource, round) in
    [0 .. total_slots - 1].
    @raise Invalid_argument out of range. *)

val slot_of_index : t -> int -> int * int
(** Inverse of {!slot_index}: [(resource, round)]. *)

val restrict_alternatives : t -> max:int -> t
(** A copy with every request's alternative list truncated to its first
    [max] entries — same arrivals and deadlines, fewer choices.  Used by
    the power-of-choices study to compare [c = 1, 2, …] on identical
    traffic.
    @raise Invalid_argument if [max < 1]. *)

val concat : t list -> t
(** Concatenate instances over the same [n_resources] and [d] in time:
    each subsequent instance's arrivals are shifted to start after the
    previous instance's horizon.  Used to repeat adversarial phases.
    @raise Invalid_argument on an empty list or mismatched parameters. *)

val pp_summary : Format.formatter -> t -> unit
