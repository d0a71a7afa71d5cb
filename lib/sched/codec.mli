(** Text codec for instances and request fields.

    A versioned, line-oriented format shared with the [lib/serve] wire
    protocol: the alternative-list and request-line grammar here is the
    one requests travel over the wire with, so a trace saved with
    {!save} replays byte-identically through the server ([reqsched load
    --mode replay]).

    Format (one record per line):
    {v
    instance rsp/1 n=<n> d=<d> requests=<count>
    req <arrival> <alt0,alt1,...> <deadline>
    ...
    end
    v}

    {!to_string} is canonical: [to_string (of_string s)] is
    byte-identical to a canonically rendered [s], and
    [of_string (to_string i)] rebuilds an instance with identical
    parameters and requests (the round-trip the test-suite pins). *)

val version : string
(** ["rsp/1"], shared with [Serve.Protocol]. *)

(** {2 Rendering}

    The [add_*] functions append to the caller's buffer, writing
    integers digit by digit: rendering a line allocates nothing beyond
    the buffer's growth. *)

val add_int : Buffer.t -> int -> unit
(** Decimal, as [string_of_int]. *)

val add_alts : Buffer.t -> int list -> unit
(** Comma-separated resource ids, e.g. ["3,0"]. *)

val add_req_fields :
  Buffer.t -> first:int -> alternatives:int list -> deadline:int -> unit
(** ["<first> <alts> <deadline>"] — [first] is the arrival round in a
    trace file and the client's request tag on the wire. *)

val render_with : (Buffer.t -> 'a -> unit) -> 'a -> string
(** [render_with add x] is what [add] appends for [x], as a fresh
    string: [add] writes into a buffer private to the calling domain,
    so the only allocation is the result.  [add] must not call
    [render_with] itself. *)

(** {2 Scanning}

    One index scanner over [s.[pos .. stop-1]], shared by trace files,
    [Serve.Protocol] and [Cluster.Wire]: it takes no substring, split
    or intermediate list, and builds strings only for error messages.

    Integers are decimal: an optional ['-'] and one or more digits,
    within the [int] range.  This is narrower than [int_of_string]:
    ["+1"], ["0x1"], ["0o7"], ["0b1"] and ["1_0"] are malformed, as is
    an overflowing literal.  Every renderer writes plain decimal, so
    no rendered line is affected. *)

exception Syntax of string
(** A scanner's error; its message is the [Error] text that
    {!of_string}, [Serve.Protocol] and [Cluster.Wire] return. *)

val field_end : string -> char -> int -> int -> int
(** [field_end s c pos stop] is the index of the first [c] in
    [s.[pos .. stop-1]], or [stop]. *)

val split3 : string -> pos:int -> stop:int -> int
(** The index of the second space when the range is exactly three
    space-separated fields, else -1 (the first space is then
    [field_end s ' ' pos] of that index). *)

val scan_int : what:string -> string -> pos:int -> stop:int -> int
(** The decimal integer spanning the range.
    @raise Syntax ["malformed <what> \"<field>\""] otherwise. *)

val scan_alts : string -> pos:int -> stop:int -> int list
(** The comma-separated alternative list spanning the range, in order;
    inverse of {!add_alts}.
    @raise Syntax on an empty list, or at the first field (left to
    right) that is malformed, negative or a duplicate. *)

val scan_req_fields :
  what:string -> string -> pos:int -> stop:int ->
  (int -> int list -> int -> 'a) -> 'a
(** [scan_req_fields ~what s ~pos ~stop k] scans
    ["<first> <alts> <deadline>"] and returns [k first alts deadline];
    the continuation lets the caller build its own record without an
    intermediate tuple.  [what] names the first field in error
    messages ("arrival", "tag").
    @raise Syntax unless there are exactly three space-separated fields,
    at the first bad field (first, alts, deadline), or on a deadline
    below 1. *)

val to_string : Instance.t -> string
val of_string : string -> (Instance.t, string) result

val save : path:string -> Instance.t -> unit
(** {!to_string} to a file.  @raise Sys_error on I/O failure. *)

val load : path:string -> (Instance.t, string) result
