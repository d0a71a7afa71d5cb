(** The reqsched wire protocol (version rsp/1).

    Line-delimited text, one message per line; renderers never emit
    newlines (the framing layer appends ['\n']).  The request-line
    grammar is {!Sched.Codec}'s, so a saved trace and the wire speak
    the same bytes — the basis of byte-identical replay.

    Conversation shape: the client opens with [Hello] and the server
    answers [Welcome]; each submitted request — one per [Submit] line,
    many per [Batch] line — eventually earns {e exactly one} terminal
    response carrying its tag: [Scheduled], [Rejected] or [Expired].  [Tick] (manual-tick servers only) advances one
    scheduling round and is acknowledged with [Round] after every shard
    has stepped.  [Error] reports a protocol violation; the server
    closes the connection after sending it.

    Round-trip law (pinned by qcheck): [parse_client (render_client m)
    = Ok m] and [parse_server (render_server m) = Ok m] for every
    well-formed message (names are space-free tokens; reject/error
    details are newline-free rest-of-line text). *)

val version : string

type request = {
  tag : int;                (** client-chosen, [>= 0]; echoed verbatim *)
  alternatives : int list;  (** global resource ids *)
  deadline : int;           (** relative deadline, [1 .. d] *)
}

type reject_reason =
  | Overload           (** the target shard's inbox was at capacity *)
  | Draining           (** server shutting down; no new admissions *)
  | Invalid of string  (** malformed request; detail says why *)

type client_msg =
  | Hello of { client : string }
  | Submit of request
  | Batch of request list
      (** many submissions in one line ([batch r;r;…], entries separated
          by [';']) — one parse and one grouped inbox push server-side.
          Never empty: rendering an empty batch is the caller's bug and
          [parse_client] rejects it.  Each entry earns its own terminal
          response, exactly as if submitted via [Submit]. *)
  | Tick
  | Bye

type server_msg =
  | Welcome of { server : string }
  | Scheduled of { tag : int; round : int; resource : int }
  | Rejected of { tag : int; reason : reject_reason }
  | Expired of { tag : int }
  | Round of { round : int }
  | Error of { message : string }

val render_server_into : Buffer.t -> server_msg -> unit
(** Append the message's line (without the newline) to the buffer,
    writing integers digit by digit: the server renders replies
    straight into a connection's output queue this way. *)

val render_client : client_msg -> string
val render_server : server_msg -> string
(** The line as a string, rendered the same way into a scratch buffer
    ({!Sched.Codec.render_with}). *)

val parse_client : string -> (client_msg, string) result
val parse_server : string -> (server_msg, string) result
(** Scan the line by index with {!Sched.Codec}'s scanner: a well-formed
    [req], [sched], [exp] or [round] line allocates only the message.
    Integer fields are decimal (optional ['-'], digits, within the
    [int] range; see {!Sched.Codec}): ["+1"], ["0x1"] or ["1_0"] is a
    malformed field, where [int_of_string] would have read it. *)

val render_reject_reason : reject_reason -> string

val is_terminal : server_msg -> bool
(** [Scheduled], [Rejected] or [Expired]. *)

val terminal_tag : server_msg -> int option
(** The tag of a terminal response; [None] otherwise. *)
