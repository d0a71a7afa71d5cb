(** The inter-node wire protocol of the cluster tier (version rsp/1).

    Line-delimited text, one message per line, sharing {!Sched.Codec}'s
    version token, integer and alternative-list grammar and scanners,
    and [Serve.Protocol]'s keyword framing — a cluster trace and a
    serve trace speak the same dialect.  Three families:

    - {e Data} ([Data of env]): request-to-resource traffic.  These are
      the messages the paper's communication model meters: per
      communication round at most [capacity] untagged data messages are
      delivered to each resource (LDF keeps the latest deadlines), the
      rest bounce.  The envelope carries the LDF key and the tag bit
      explicitly, so the transport's capacity accounting is computed
      from the wire bytes alone.
    - {e Reply} ([Reply of reply]): resource/node-to-router responses.
      Not capacity-limited, matching the paper's asymmetric accounting.
    - {e Control} ([Control of control]): membership and liveness
      (hello/ping/join/handoff).  Also uncapped; never part of a
      protocol round budget.

    A request travels as the {!Sched.Request.t} the protocol holds:
    ["<id> <alts> <arrival> <deadline>"], enough to replicate it (a node
    receiving one can hold the slot, hand it off, and report the
    serve).

    Round-trip law (pinned by qcheck): [parse (render m) = Ok m] for
    every well-formed message.  [parse] rejects lines longer than
    {!max_line} outright — a peer cannot feed the router an unbounded
    allocation — and rejects [hello]/[join] carrying any version token
    other than {!version}. *)

val version : string
(** ["rsp/1"], shared with {!Sched.Codec.version}. *)

val max_line : int
(** Longest accepted line in bytes (65536); [parse] rejects longer
    ones without inspecting them. *)

(** Payloads of capacity-contested data messages, one constructor per
    communication-round kind of the live protocols ([A_local_fix]:
    [Offer]; [A_local_eager] adds [Probe]/[Cancel]/[Rival]/[Swap]/
    [Rehome]; the proxy-global baseline uses [Loadq]/[Assign]). *)
type data =
  | Offer of Sched.Request.t  (** fix offer *)
  | Probe of Sched.Request.t
      (** eager phase 2: mover asks for a current slot *)
  | Cancel of { q : int; old_res : int; old_t : int }
      (** release an acknowledged mover's old slot *)
  | Rival of Sched.Request.t  (** eager phase 3: swap solicitation *)
  | Swap of { r : int; q : Sched.Request.t }
      (** tagged notification: the current slot held by [r] now belongs
          to [q] *)
  | Rehome of { r : Sched.Request.t; res : int }
      (** forward occupant [r] of [res]'s current slot to its other
          resource *)
  | Loadq  (** proxy: query earliest free slot *)
  | Assign of Sched.Request.t  (** proxy: claim a slot *)

type env = {
  sender : int;       (** request id (LDF tie-break key) *)
  dst : int;          (** global resource id *)
  deadline_key : int; (** LDF key; [max_int] renders as ["inf"] *)
  tagged : bool;      (** bypasses the capacity cut (swap notifications) *)
  data : data;
}

type reply =
  | Accept of { q : int; res : int; slot : int }
  | Full of { q : int; res : int }
  | Ack of { q : int; res : int }          (** probe acknowledged *)
  | Freeat of { q : int; res : int; slot : int }  (** [Loadq] answer *)
  | Served of { res : int; round : int; q : int }
      (** end-of-round serve report, node to router *)
  | Pong of { node : int; round : int }

type control =
  | Hello of { node : int }          (** carries {!version} on the wire *)
  | Ping of { round : int }
  | Join of { node : int; round : int }  (** rejoin; carries {!version} *)
  | Handoff of { res : int; slots : (int * Sched.Request.t) list }
      (** move [res]'s future slots [(round, occupant)] to its new
          owner after a rebalance *)

type t = Data of env | Reply of reply | Control of control

val equal : t -> t -> bool
(** Structural equality, field by field and without the polymorphic
    walk: the transport's round-trip check. *)

val put : Sched.Codec.writer -> t -> int
(** Write the line (no newline) at position 0 of the writer; its
    length. *)

val render : t -> string
(** {!put} into the calling domain's {!Sched.Codec.writer}, as a fresh
    string: the only allocation is the line. *)

val parse_prefix : string -> int -> (t, string) result
(** [parse_prefix s len] parses the line [s.[0 .. len-1]] (it keeps no
    reference to [s]): rejects oversize lines, unknown keywords,
    malformed fields and version mismatches.  One index scan over the
    line: a well-formed line allocates only the message it denotes,
    its requests built by {!Sched.Request.of_array}.  Where several integer
    fields of a reply, a [cancel] or several [handoff] entries are bad,
    the rightmost names the error.
    @raise Invalid_argument if [len] is negative or beyond the end of
    [s]. *)

val parse : string -> (t, string) result
(** The inverse of {!render}: [parse_prefix] over the whole string. *)

val data_env :
  sender:int -> dst:int -> deadline_key:int -> ?tagged:bool -> data -> t
(** Envelope helper; [tagged] defaults to [false]. *)
