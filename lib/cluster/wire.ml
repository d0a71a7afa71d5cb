(* Inter-node wire grammar.  Everything is a single space-separated
   line behind a leading keyword; integer fields are non-negative
   decimals, alternative lists use Sched.Codec's comma grammar, and the
   LDF key renders max_int as "inf" (cancel messages outrank
   everything, and 4611686018427387903 on the wire would be noise, not
   meaning). *)

module Codec = Sched.Codec
module Request = Sched.Request

let version = Codec.version
let max_line = 65536

type data =
  | Offer of Request.t
  | Probe of Request.t
  | Cancel of { q : int; old_res : int; old_t : int }
  | Rival of Request.t
  | Swap of { r : int; q : Request.t }
  | Rehome of { r : Request.t; res : int }
  | Loadq
  | Assign of Request.t

type env = {
  sender : int;
  dst : int;
  deadline_key : int;
  tagged : bool;
  data : data;
}

type reply =
  | Accept of { q : int; res : int; slot : int }
  | Full of { q : int; res : int }
  | Ack of { q : int; res : int }
  | Freeat of { q : int; res : int; slot : int }
  | Served of { res : int; round : int; q : int }
  | Pong of { node : int; round : int }

type control =
  | Hello of { node : int }
  | Ping of { round : int }
  | Join of { node : int; round : int }
  | Handoff of { res : int; slots : (int * Request.t) list }

type t = Data of env | Reply of reply | Control of control

let data_env ~sender ~dst ~deadline_key ?(tagged = false) data =
  Data { sender; dst; deadline_key; tagged; data }

(* ------------------------------------------------------------------ *)
(* equality, field by field *)

let equal_data a b =
  match (a, b) with
  | Offer x, Offer y | Probe x, Probe y | Rival x, Rival y | Assign x, Assign y
    ->
    Request.equal x y
  | Cancel x, Cancel y ->
    x.q = y.q && x.old_res = y.old_res && x.old_t = y.old_t
  | Swap x, Swap y -> x.r = y.r && Request.equal x.q y.q
  | Rehome x, Rehome y -> x.res = y.res && Request.equal x.r y.r
  | Loadq, Loadq -> true
  | _ -> false

let equal_reply a b =
  match (a, b) with
  | Accept x, Accept y -> x.q = y.q && x.res = y.res && x.slot = y.slot
  | Full x, Full y -> x.q = y.q && x.res = y.res
  | Ack x, Ack y -> x.q = y.q && x.res = y.res
  | Freeat x, Freeat y -> x.q = y.q && x.res = y.res && x.slot = y.slot
  | Served x, Served y -> x.res = y.res && x.round = y.round && x.q = y.q
  | Pong x, Pong y -> x.node = y.node && x.round = y.round
  | _ -> false

let rec equal_slots a b =
  match (a, b) with
  | [], [] -> true
  | (t, r) :: a, (u, q) :: b -> t = u && Request.equal r q && equal_slots a b
  | _ -> false

let equal_control a b =
  match (a, b) with
  | Hello x, Hello y -> x.node = y.node
  | Ping x, Ping y -> x.round = y.round
  | Join x, Join y -> x.node = y.node && x.round = y.round
  | Handoff x, Handoff y -> x.res = y.res && equal_slots x.slots y.slots
  | _ -> false

let equal a b =
  match (a, b) with
  | Data x, Data y ->
    x.sender = y.sender && x.dst = y.dst && x.deadline_key = y.deadline_key
    && x.tagged = y.tagged && equal_data x.data y.data
  | Reply x, Reply y -> equal_reply x y
  | Control x, Control y -> equal_control x y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* rendering: field by field into Codec's domain-private writer, the
   position threaded through, so a line costs its bytes and nothing
   else *)

let put_field w pos n = Codec.put_int w (Codec.put_char w pos ' ') n

(* " <id> <alts> <arrival> <deadline>", behind its space *)
let put_request w pos (r : Request.t) =
  let pos = put_field w pos r.Request.id in
  let pos = Codec.put_char w pos ' ' in
  let pos = Codec.put_alts w pos r.Request.alternatives in
  let pos = put_field w pos r.Request.arrival in
  put_field w pos r.Request.deadline

(* "<keyword> <sender> <dst> <key> <t|u>" *)
let put_head w keyword e =
  let pos = Codec.put_string w 0 keyword in
  let pos = put_field w pos e.sender in
  let pos = put_field w pos e.dst in
  let pos = Codec.put_char w pos ' ' in
  let pos =
    if e.deadline_key = max_int then Codec.put_string w pos "inf"
    else Codec.put_int w pos e.deadline_key
  in
  Codec.put_string w pos (if e.tagged then " t" else " u")

let put_data w e =
  match e.data with
  | Offer r -> put_request w (put_head w "offer" e) r
  | Probe r -> put_request w (put_head w "probe" e) r
  | Cancel { q; old_res; old_t } ->
    let pos = put_field w (put_head w "cancel" e) q in
    put_field w (put_field w pos old_res) old_t
  | Rival r -> put_request w (put_head w "rival" e) r
  | Swap { r; q } -> put_request w (put_field w (put_head w "swap" e) r) q
  | Rehome { r; res } ->
    put_request w (put_field w (put_head w "rehome" e) res) r
  | Loadq -> put_head w "loadq" e
  | Assign r -> put_request w (put_head w "assign" e) r

let put_ints2 w keyword a b =
  put_field w (put_field w (Codec.put_string w 0 keyword) a) b

let put_ints3 w keyword a b c = put_field w (put_ints2 w keyword a b) c

let put_reply w = function
  | Accept { q; res; slot } -> put_ints3 w "accept" q res slot
  | Full { q; res } -> put_ints2 w "full" q res
  | Ack { q; res } -> put_ints2 w "ack" q res
  | Freeat { q; res; slot } -> put_ints3 w "freeat" q res slot
  | Served { res; round; q } -> put_ints3 w "served" res round q
  | Pong { node; round } -> put_ints2 w "pong" node round

(* handoff entries: "<round> <request>", the first behind a space, the
   rest behind ';' *)
let rec put_slots w pos sep = function
  | [] -> pos
  | (t, r) :: rest ->
    let pos = Codec.put_int w (Codec.put_char w pos sep) t in
    put_slots w (put_request w pos r) ';' rest

(* "<keyword> <version>" *)
let put_versioned w keyword =
  let pos = Codec.put_char w (Codec.put_string w 0 keyword) ' ' in
  Codec.put_string w pos version

let put_control w = function
  | Hello { node } -> put_field w (put_versioned w "hello") node
  | Ping { round } -> put_field w (Codec.put_string w 0 "ping") round
  | Join { node; round } ->
    put_field w (put_field w (put_versioned w "join") node) round
  | Handoff { res; slots } ->
    put_slots w (put_field w (Codec.put_string w 0 "handoff") res) ' ' slots

let put w = function
  | Data e -> put_data w e
  | Reply r -> put_reply w r
  | Control c -> put_control w c

let render m =
  let w = Codec.writer () in
  Codec.contents w (put w m)

(* ------------------------------------------------------------------ *)
(* parsing: one index scan over the line with Codec's scanners.  The
   fields of a range are its single-space-separated pieces, so an empty
   range is one empty field; "the fields after j" are those of
   [j+1 .. stop-1], none when [j = stop].  A well-formed line allocates
   only the message it denotes; a malformed one raises [Codec.Syntax]
   with its error text. *)

let syntax fmt = Printf.ksprintf (fun m -> raise (Codec.Syntax m)) fmt

let space s pos stop = Codec.field_end s ' ' pos stop

(* a non-negative decimal field *)
let nat ~what s pos stop =
  let v = Codec.scan_int ~what s ~pos ~stop in
  if v < 0 then syntax "negative %s %d" what v;
  v

let rec same s pos tok i =
  i = String.length tok
  || (String.unsafe_get s (pos + i) = String.unsafe_get tok i
      && same s pos tok (i + 1))

(* is [s.[pos .. stop-1]] exactly [tok]? *)
let is s pos stop tok = stop - pos = String.length tok && same s pos tok 0

let field s pos stop = String.sub s pos (stop - pos)

(* "<id> <alts> <arrival> <deadline>", exactly the fields after j; the
   grammar enforces every rule of Request.of_array, which cannot fail
   here *)
let request s j stop =
  let i1 = if j < stop then space s (j + 1) stop else stop in
  let i2 = if i1 < stop then space s (i1 + 1) stop else stop in
  let i3 = if i2 < stop then space s (i2 + 1) stop else stop in
  if i3 >= stop || space s (i3 + 1) stop < stop then
    syntax "expected '<request> <alts> <arrival> <deadline>'";
  let id = nat ~what:"request id" s (j + 1) i1 in
  let alternatives = Codec.scan_alt_array s ~pos:(i1 + 1) ~stop:i2 in
  let arrival = nat ~what:"arrival" s (i2 + 1) i3 in
  let deadline = nat ~what:"deadline" s (i3 + 1) stop in
  if deadline < 1 then syntax "deadline %d < 1" deadline;
  Request.of_array ~id ~arrival ~alternatives ~deadline

(* Exactly two or three integer fields in [p .. stop-1], scanned right
   to left: when several are bad, the last one names the error. *)
let ints2 ~shape w1 w2 s p stop k =
  let i1 = space s p stop in
  if i1 >= stop || space s (i1 + 1) stop < stop then
    syntax "expected '%s'" shape;
  let b = nat ~what:w2 s (i1 + 1) stop in
  k (nat ~what:w1 s p i1) b

let ints3 ~shape w1 w2 w3 s p stop k =
  let i2 = Codec.split3 s ~pos:p ~stop in
  if i2 < 0 then syntax "expected '%s'" shape;
  let i1 = space s p i2 in
  let c = nat ~what:w3 s (i2 + 1) stop in
  let b = nat ~what:w2 s (i1 + 1) i2 in
  k (nat ~what:w1 s p i1) b c

(* payloads: the fields after the tag flag, which ends at j *)
let offer s j stop = Offer (request s j stop)
let probe s j stop = Probe (request s j stop)
let rival s j stop = Rival (request s j stop)
let assign s j stop = Assign (request s j stop)

let cancel s j stop =
  let shape = "<q> <old res> <old round>" in
  if j >= stop then syntax "expected '%s'" shape;
  ints3 ~shape "request" "old resource" "old round" s (j + 1) stop
    (fun q old_res old_t -> Cancel { q; old_res; old_t })

let swap s j stop =
  if j >= stop then syntax "truncated swap";
  let i = space s (j + 1) stop in
  let r = nat ~what:"occupant" s (j + 1) i in
  Swap { r; q = request s i stop }

let rehome s j stop =
  if j >= stop then syntax "truncated rehome";
  let i = space s (j + 1) stop in
  let res = nat ~what:"resource" s (j + 1) i in
  Rehome { r = request s i stop; res }

let loadq _ j stop =
  if j < stop then syntax "loadq carries no payload";
  Loadq

(* "<sender> <dst> <key> <t|u> payload..." over [p .. stop-1] *)
let envelope s p stop payload =
  let i1 = space s p stop in
  let i2 = if i1 < stop then space s (i1 + 1) stop else stop in
  let i3 = if i2 < stop then space s (i2 + 1) stop else stop in
  if i3 >= stop then syntax "truncated envelope";
  let i4 = space s (i3 + 1) stop in
  let sender = nat ~what:"sender" s p i1 in
  let dst = nat ~what:"destination" s (i1 + 1) i2 in
  let deadline_key =
    if is s (i2 + 1) i3 "inf" then max_int
    else nat ~what:"deadline key" s (i2 + 1) i3
  in
  let tagged =
    if is s (i3 + 1) i4 "t" then true
    else if is s (i3 + 1) i4 "u" then false
    else
      syntax "malformed tag flag %S (want t or u)" (field s (i3 + 1) i4)
  in
  let data = payload s i4 stop in
  Data { sender; dst; deadline_key; tagged; data }

(* "<version> rest...": the end of the version field *)
let versioned s p stop =
  let i = space s p stop in
  if not (is s p i version) then
    syntax "unsupported protocol version %S (want %s)" (field s p i) version;
  i

let hello s p stop =
  let i = versioned s p stop in
  if i >= stop || space s (i + 1) stop < stop then
    syntax "expected 'hello %s <node>'" version;
  Control (Hello { node = nat ~what:"node" s (i + 1) stop })

let join s p stop =
  let i = versioned s p stop in
  let i2 = if i < stop then space s (i + 1) stop else stop in
  if i2 >= stop || space s (i2 + 1) stop < stop then
    syntax "expected 'join %s <node> <round>'" version;
  let node = nat ~what:"node" s (i + 1) i2 in
  let round = nat ~what:"round" s (i2 + 1) stop in
  Control (Join { node; round })

(* "<round> <request>" entries separated by ';', scanned right to left
   like the ints: the last bad entry names the error *)
let rec slots s pos stop =
  let e = Codec.field_end s ';' pos stop in
  let rest = if e < stop then slots s (e + 1) stop else [] in
  let i = space s pos e in
  let t = nat ~what:"slot round" s pos i in
  (t, request s i e) :: rest

(* "<res>" and "<res> " carry no slots, "<res> <entries>" some *)
let handoff s p stop =
  let i = space s p stop in
  let res = nat ~what:"resource" s p i in
  let slots = if i + 1 >= stop then [] else slots s (i + 1) stop in
  Control (Handoff { res; slots })

(* the keyword spans [0 .. k-1], its argument [p .. stop-1] *)
let message s k p stop =
  if is s 0 k "offer" then envelope s p stop offer
  else if is s 0 k "probe" then envelope s p stop probe
  else if is s 0 k "cancel" then envelope s p stop cancel
  else if is s 0 k "rival" then envelope s p stop rival
  else if is s 0 k "swap" then envelope s p stop swap
  else if is s 0 k "rehome" then envelope s p stop rehome
  else if is s 0 k "accept" then
    ints3 ~shape:"accept <q> <res> <slot>" "request" "resource" "slot" s p
      stop (fun q res slot -> Reply (Accept { q; res; slot }))
  else if is s 0 k "full" then
    ints2 ~shape:"full <q> <res>" "request" "resource" s p stop
      (fun q res -> Reply (Full { q; res }))
  else if is s 0 k "ack" then
    ints2 ~shape:"ack <q> <res>" "request" "resource" s p stop
      (fun q res -> Reply (Ack { q; res }))
  else if is s 0 k "served" then
    ints3 ~shape:"served <res> <round> <q>" "resource" "round" "request" s p
      stop (fun res round q -> Reply (Served { res; round; q }))
  else if is s 0 k "ping" then
    Control (Ping { round = nat ~what:"round" s p stop })
  else if is s 0 k "pong" then
    ints2 ~shape:"pong <node> <round>" "node" "round" s p stop
      (fun node round -> Reply (Pong { node; round }))
  else if is s 0 k "loadq" then envelope s p stop loadq
  else if is s 0 k "assign" then envelope s p stop assign
  else if is s 0 k "freeat" then
    ints3 ~shape:"freeat <q> <res> <slot>" "request" "resource" "slot" s p
      stop (fun q res slot -> Reply (Freeat { q; res; slot }))
  else if is s 0 k "hello" then hello s p stop
  else if is s 0 k "join" then join s p stop
  else if is s 0 k "handoff" then handoff s p stop
  else syntax "unknown message %S" (field s 0 k)

let parse_prefix line len =
  if len < 0 || len > String.length line then
    invalid_arg
      (Printf.sprintf "Wire.parse_prefix: length %d outside a %d-byte string"
         len (String.length line));
  if len > max_line then
    Error (Printf.sprintf "line too long (%d bytes, max %d)" len max_line)
  else
    let k = space line 0 len in
    match message line k (if k < len then k + 1 else len) len with
    | m -> Ok m
    | exception Codec.Syntax e -> Error e

let parse line = parse_prefix line (String.length line)
