(** A resource-side slot table: one occupant per (resource, round).

    Holds request ids in the local protocols' state machine
    ({!Machine}) and request payloads in the live cluster's node
    replicas. *)

type 'a t

val create : unit -> 'a t
val find : 'a t -> res:int -> round:int -> 'a option
val mem : 'a t -> res:int -> round:int -> bool
val set : 'a t -> res:int -> round:int -> 'a -> unit
val free : 'a t -> res:int -> round:int -> unit

val take : 'a t -> res:int -> round:int -> 'a option
(** Remove and return the occupant, if any. *)

val first_free : 'a t -> res:int -> from:int -> last:int -> int option
(** The earliest round in [from .. last] with no occupant at [res] —
    the slot the paper's maximal acceptance rule gives a request whose
    window is [from .. last]. *)

val fold : 'a t -> (res:int -> round:int -> 'a -> 'b -> 'b) -> 'b -> 'b
val clear : 'a t -> unit
