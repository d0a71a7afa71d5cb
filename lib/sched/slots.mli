(** A resource-side slot table: at most one occupant per (resource,
    round), over a window of [d] rounds — the object all the paper's
    strategies work on (maximal acceptance takes the earliest free
    slot of a request's window).

    A stamped ring: (res, round) lives in cell [(round mod d) * n + res]
    and is occupied iff the cell's stamp equals [round].  Contract: with
    the clock at round [now], operations name rounds in
    [now - d + 1 .. now + d - 1], and no slot before [now] needs to stay
    occupied.  {!Engine.Live} gives every strategy this, as each window
    lies within [d] rounds of its arrival.  [free] and [take] check the
    stamp, so on a past round they never clear the live cell [d] rounds
    later. *)

type 'a t

val create : n:int -> d:int -> dummy:'a -> 'a t
(** Empty, over resources [0 .. n-1]; [dummy] fills free cells and is
    never returned.  @raise Invalid_argument if [n < 1] or [d < 1]. *)

val mem : 'a t -> res:int -> round:int -> bool
val find : 'a t -> res:int -> round:int -> 'a option
val set : 'a t -> res:int -> round:int -> 'a -> unit
val free : 'a t -> res:int -> round:int -> unit

val take : 'a t -> res:int -> round:int -> 'a option
(** Remove and return the occupant, if any. *)

val first_free : 'a t -> res:int -> from:int -> last:int -> int option
(** The earliest unoccupied round in [from .. last] at [res]. *)

val count_free : 'a t -> res:int -> from:int -> last:int -> int
(** The unoccupied rounds in [from .. last] at [res]. *)

val clear : 'a t -> unit
