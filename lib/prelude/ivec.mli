(** Growable arrays of unboxed [int]s.

    The graph and engine layers build adjacency incrementally; a
    specialised int vector avoids the boxing and indirection a generic
    dynamic array would pay on the hot path.  (OCaml 5.1 predates
    [Stdlib.Dynarray].) *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument on out-of-bounds index. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument on out-of-bounds index. *)

val push : t -> int -> unit
(** Append, growing geometrically as needed. *)

val clear : t -> unit
(** Reset to length 0; capacity is retained. *)

val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val exists : (int -> bool) -> t -> bool
val to_array : t -> int array
val of_array : int array -> t
