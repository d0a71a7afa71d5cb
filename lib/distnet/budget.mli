(** The per-resource mailbox budget of Sec. 1.3, factored out so the
    synchronous simulator ({!Net.exchange}) and the live cluster
    transport ([Cluster.Transport]) apply {e the same} drop rule — the
    agreement the live-path parity test pins.

    Rule, per destination and per communication round: tagged messages
    are always delivered; the untagged ones compete for [capacity]
    slots, kept latest-deadline-first (LDF) with ties broken by higher
    priority, then lower sender id, then arrival order (the message's
    index). *)

type envelope = {
  b_sender : int;
  b_dst : int;
  b_deadline : int;  (** absolute deadline key used by the LDF rule *)
  b_tagged : bool;   (** bypasses the capacity cut *)
}

val deliver :
  n:int ->
  capacity:int ->
  priority:(sender:int -> dst:int -> int) ->
  envelope option array ->
  bool array
(** [deliver ~n ~capacity ~priority envs] marks the messages kept by
    the mailbox rule: [(deliver ...).(i)] is [true] iff message [i] is
    delivered.  Positions identify messages — the same (sender, dst)
    pair may appear several times and each copy wins or loses on its
    own.  [None] is a message that never reaches a mailbox (lost in
    transit, or addressed to a dead node): it takes no capacity and is
    not delivered.
    @raise Invalid_argument on a destination outside [0 .. n-1]. *)
