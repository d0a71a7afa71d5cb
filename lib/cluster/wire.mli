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

type reqinfo = {
  rid : int;                (** request id, [>= 0] *)
  alternatives : int list;  (** global resource ids, {!Sched.Codec} rules *)
  arrival : int;            (** arrival round, [>= 0] *)
  deadline : int;           (** relative deadline, [>= 1] *)
}
(** Enough of a request to replicate it: a node receiving a [reqinfo]
    can hold the slot, hand it off, and report the serve. *)

val last_round : reqinfo -> int
(** [arrival + deadline - 1], the LDF key of the request's messages. *)

(** Payloads of capacity-contested data messages, one constructor per
    communication-round kind of the live protocols ([A_local_fix]:
    [Offer]; [A_local_eager] adds [Probe]/[Cancel]/[Rival]/[Swap]/
    [Rehome]; the proxy-global baseline uses [Loadq]/[Assign]). *)
type data =
  | Offer of reqinfo                               (** fix offer *)
  | Probe of reqinfo  (** eager phase 2: mover asks for a current slot *)
  | Cancel of { q : int; old_res : int; old_t : int }
      (** release an acknowledged mover's old slot *)
  | Rival of reqinfo             (** eager phase 3: swap solicitation *)
  | Swap of { r : int; q : reqinfo }
      (** tagged notification: the current slot held by [r] now belongs
          to [q] *)
  | Rehome of { r : reqinfo; res : int }
      (** forward occupant [r] of [res]'s current slot to its other
          resource *)
  | Loadq                          (** proxy: query earliest free slot *)
  | Assign of reqinfo              (** proxy: claim a slot *)

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
  | Handoff of { res : int; slots : (int * reqinfo) list }
      (** move [res]'s future slots [(round, occupant)] to its new
          owner after a rebalance *)

type t = Data of env | Reply of reply | Control of control

val render : t -> string
(** One line, no newline, written into {!Sched.Codec.render_with}'s
    buffer: the only allocation is the line. *)

val parse : string -> (t, string) result
(** Inverse of {!render}; rejects oversize lines, unknown keywords,
    malformed fields and version mismatches.  One index scan over the
    line: a well-formed line allocates only the message it denotes.
    Where several integer fields of a reply, a [cancel] or several
    [handoff] entries are bad, the rightmost names the error. *)

val data_env :
  sender:int -> dst:int -> deadline_key:int -> ?tagged:bool -> data -> t
(** Envelope helper; [tagged] defaults to [false]. *)

val reqinfo_of_request : Sched.Request.t -> reqinfo
val request_of_reqinfo : reqinfo -> Sched.Request.t
(** Inverses on the replicated fields (id, alternatives, arrival,
    deadline). *)
