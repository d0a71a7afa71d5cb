(** The cluster's message fabric: the paper's communication model over
    rendered wire bytes.

    Every message physically travels as a {!Wire} line: the transport
    renders it, length-checks it, and parses it back before delivery,
    so a protocol decision can only ever be made from what the grammar
    actually carries — a field the renderer forgets is a field the
    cluster demonstrably does not need.  Structural round-trip drift
    raises: it is a bug in {!Wire}, never a runtime condition.

    Data messages contest per-resource capacity exactly as
    {!Distnet.Net} does — the LDF cut is {!Distnet.Budget.deliver},
    the {e same code} on both the simulated and the live path (the
    parity the test-suite pins).  {!status} is
    {!Distnet.Net.status}: this is the live carrier of the local
    strategies' state machine ({!Localstrat.Machine}).  Two extra outcomes exist here that the single-process
    simulator has no use for: a message to a
    resource currently hosted on a dead node is [Dead] (the sender is
    notified, as with a bounce, but the message never contests
    capacity), and replies/control lines travel uncapped.

    Meters: private counters for protocol budgets (comm rounds,
    messages, bounces, dead drops, replies, control lines), mirrored
    into [cluster.*] metrics ([cluster.comm_rounds], [cluster.msgs],
    [cluster.bounced], [cluster.dropped_dead], [cluster.replies],
    [cluster.ctrl_msgs]) by {!flush}, so that a message costs no
    registry lock or string hash. *)

type status = Distnet.Net.status =
  | Delivered
  | Bounced  (** lost the LDF capacity contest; sender notified *)
  | Dead     (** destination resource hosted on a dead node *)

type t

val create :
  n:int -> capacity:int ->
  ?priority:(sender:int -> dst:int -> int) ->
  ?metrics:Obs.Metrics.t -> unit -> t
(** A fabric over [n] resources delivering at most [capacity] untagged
    data messages per resource per communication round.  [priority]
    breaks LDF ties as in {!Distnet.Net} (higher kept; default
    constant 0).  [metrics] receives the [cluster.*] mirror at each
    {!flush} (ambient fallback; silent when neither is set).
    @raise Invalid_argument if [n < 1] or [capacity < 1]. *)

val exchange :
  t -> owner:(int -> int) -> alive:(int -> bool) ->
  Wire.env list -> (Wire.env * status) list
(** One communication round: render, deliver, report.  [owner] maps a
    resource to its hosting node and [alive] tells whether that node is
    up.  Ordering and tie-break semantics match
    {!Distnet.Net.exchange}: positions in the input list are the final
    LDF tie-break.  Counts one communication round when the list is
    non-empty.
    @raise Invalid_argument on a destination outside [0 .. n-1]. *)

val respond : t -> Wire.reply -> Wire.reply
(** Send an uncapped response line (resource/node to router); returns
    the message as re-parsed from its wire bytes. *)

val control : t -> Wire.control -> Wire.control
(** Send an uncapped control line (membership/liveness traffic); wire
    round-trip as {!respond}. *)

val tick : t -> unit
(** Count a communication round carrying no data traffic. *)

val flush : t -> unit
(** Mirror what the counters gained since the last flush into the
    metrics registry: one [incr ~by] per counter that moved.
    [Cluster.Session] flushes once per scheduling round. *)

val comm_rounds : t -> int
val messages : t -> int
val bounced : t -> int
val dropped_dead : t -> int
val replies : t -> int
val ctrl_msgs : t -> int
