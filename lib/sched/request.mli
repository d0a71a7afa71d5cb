(** Requests: the unit of work in the scheduling model.

    A request arrives at a round, names a set of alternative resources
    (two in the paper's core model; the library supports any [c >= 1] for
    the EDF observations), and must be served within [deadline] rounds of
    arrival: a request arriving at round [t] with deadline [d] may be
    served in rounds [t .. t+d-1] only. *)

type t = private {
  id : int;            (** dense id, assigned by {!Instance.build} *)
  arrival : int;       (** round of arrival, [>= 0] *)
  alternatives : int array;
      (** distinct resource indices the request may be served by, in the
          order given to {!make}: element 0 is the {e first alternative}
          the local protocols contact first *)
  deadline : int;      (** relative deadline, [>= 1] *)
}

val make : arrival:int -> alternatives:int list -> deadline:int -> t
(** A request proto with [id = -1]; {!Instance.build} renumbers.
    @raise Invalid_argument on negative arrival, deadline < 1, an empty or
    duplicate-containing alternative list, or a negative resource. *)

val of_array :
  id:int -> arrival:int -> alternatives:int array -> deadline:int -> t
(** A request with the given id over [alternatives], which it takes
    over (the array is not copied; the caller must not mutate it
    afterwards).  Same checks and messages as {!make}; this is how
    {!Engine.Live} admits a request without a proto and a copy. *)

val equal : t -> t -> bool
(** Field by field; the same as structural [=], without the
    polymorphic walk. *)

val with_id : t -> int -> t
(** Copy with the given id (used by {!Instance.build}). *)

val last_round : t -> int
(** Latest round in which the request may be served:
    [arrival + deadline - 1]. *)

val is_live : t -> round:int -> bool
(** Whether [round] lies inside the request's service window. *)

val has_alternative : t -> int -> bool
(** Whether the given resource is one of the request's alternatives. *)

val pp : Format.formatter -> t -> unit
