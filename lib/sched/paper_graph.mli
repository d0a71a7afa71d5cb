(** The paper's bipartite graph [G = (R ∪ S, E)] of an instance.

    Left vertices are request ids; right vertices are dense time-slot
    indices ({!Instance.slot_index}); a request is connected to every slot
    of each of its alternative resources inside its service window.  Any
    feasible schedule induces a matching in this graph, and the offline
    optimum is a maximum matching (Sec. 1.2).

    The streaming offline optimum ([Offline.Opt_stream]) builds the same
    graph round by round, one slot column at a time, in
    {!Graph.Augment}'s column store rather than through this module. *)

val of_instance : Instance.t -> Graph.Bipartite.t
(** Build [G].  Edge ids are in (request, alternative, round) order. *)

val edge_for :
  Graph.Bipartite.t -> Instance.t -> request:int -> resource:int ->
  round:int -> int option
(** The edge id connecting the request to slot (resource, round), if it
    exists in [G]. *)
