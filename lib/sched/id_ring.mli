(** Rings of request ids: the window of live requests that
    {!Engine.Live}, [Localstrat.Machine], a serve shard and
    [Analysis.Slo] each keep.

    Ids are admitted in ascending order, so the ids a holder still
    tracks form a span [low .. next - 1] (the holder keeps the two
    bounds).  Id [i] of the span sits in cell [i land (length - 1)] of
    every array of the ring; the arrays are parallel, their length a
    power of two, and a cell outside the span, or of an id that left,
    holds the holder's vacant value (compared physically). *)

val cell : 'a array -> int -> int
(** [cell ring id] is [id land (Array.length ring - 1)]. *)

val grow : 'a array -> low:int -> next:int -> 'a -> 'a array
(** [grow ring ~low ~next vacant]: a ring twice as long, ids
    [low .. next - 1] moved to their cells under the new length, every
    other cell [vacant].  Grow each parallel array with the same
    bounds. *)

val trim : 'a array -> low:int -> next:int -> 'a -> int
(** [trim ring ~low ~next vacant]: the first id of [low .. next - 1]
    whose cell is not [vacant] ([==]), else [next] — the span's new
    [low] once ids have left. *)
