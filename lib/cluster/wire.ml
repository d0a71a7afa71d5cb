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

type reqinfo = {
  rid : int;
  alternatives : int list;
  arrival : int;
  deadline : int;
}

let last_round ri = ri.arrival + ri.deadline - 1

type data =
  | Offer of reqinfo
  | Probe of reqinfo
  | Cancel of { q : int; old_res : int; old_t : int }
  | Rival of reqinfo
  | Swap of { r : int; q : reqinfo }
  | Rehome of { r : reqinfo; res : int }
  | Loadq
  | Assign of reqinfo

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
  | Handoff of { res : int; slots : (int * reqinfo) list }

type t = Data of env | Reply of reply | Control of control

let data_env ~sender ~dst ~deadline_key ?(tagged = false) data =
  Data { sender; dst; deadline_key; tagged; data }

let reqinfo_of_request (r : Request.t) =
  {
    rid = r.Request.id;
    alternatives = Array.to_list r.Request.alternatives;
    arrival = r.Request.arrival;
    deadline = r.Request.deadline;
  }

let request_of_reqinfo ri =
  Request.of_array ~id:ri.rid ~arrival:ri.arrival
    ~alternatives:(Array.of_list ri.alternatives) ~deadline:ri.deadline

(* ------------------------------------------------------------------ *)
(* rendering: digit by digit into Codec's domain-private buffer, so a
   line costs its bytes and nothing else *)

let add_field b n =
  Buffer.add_char b ' ';
  Codec.add_int b n

(* " <rid> <alts> <arrival> <deadline>", behind its space *)
let add_reqinfo b ri =
  Buffer.add_char b ' ';
  Codec.add_int b ri.rid;
  Buffer.add_char b ' ';
  Codec.add_alts b ri.alternatives;
  add_field b ri.arrival;
  add_field b ri.deadline

(* "<keyword> <sender> <dst> <key> <t|u>" *)
let add_head b keyword e =
  Buffer.add_string b keyword;
  add_field b e.sender;
  add_field b e.dst;
  Buffer.add_char b ' ';
  if e.deadline_key = max_int then Buffer.add_string b "inf"
  else Codec.add_int b e.deadline_key;
  Buffer.add_string b (if e.tagged then " t" else " u")

let add_data b e =
  match e.data with
  | Offer ri -> add_head b "offer" e; add_reqinfo b ri
  | Probe ri -> add_head b "probe" e; add_reqinfo b ri
  | Cancel { q; old_res; old_t } ->
    add_head b "cancel" e;
    add_field b q;
    add_field b old_res;
    add_field b old_t
  | Rival ri -> add_head b "rival" e; add_reqinfo b ri
  | Swap { r; q } -> add_head b "swap" e; add_field b r; add_reqinfo b q
  | Rehome { r; res } ->
    add_head b "rehome" e; add_field b res; add_reqinfo b r
  | Loadq -> add_head b "loadq" e
  | Assign ri -> add_head b "assign" e; add_reqinfo b ri

let add_reply b = function
  | Accept { q; res; slot } ->
    Buffer.add_string b "accept"; add_field b q; add_field b res;
    add_field b slot
  | Full { q; res } ->
    Buffer.add_string b "full"; add_field b q; add_field b res
  | Ack { q; res } ->
    Buffer.add_string b "ack"; add_field b q; add_field b res
  | Freeat { q; res; slot } ->
    Buffer.add_string b "freeat"; add_field b q; add_field b res;
    add_field b slot
  | Served { res; round; q } ->
    Buffer.add_string b "served"; add_field b res; add_field b round;
    add_field b q
  | Pong { node; round } ->
    Buffer.add_string b "pong"; add_field b node; add_field b round

(* handoff entries: "<round> <reqinfo>", the first behind a space, the
   rest behind ';' *)
let rec add_slots b sep = function
  | [] -> ()
  | (t, ri) :: rest ->
    Buffer.add_char b sep;
    Codec.add_int b t;
    add_reqinfo b ri;
    add_slots b ';' rest

let add_control b = function
  | Hello { node } ->
    Buffer.add_string b "hello ";
    Buffer.add_string b version;
    add_field b node
  | Ping { round } -> Buffer.add_string b "ping"; add_field b round
  | Join { node; round } ->
    Buffer.add_string b "join ";
    Buffer.add_string b version;
    add_field b node;
    add_field b round
  | Handoff { res; slots } ->
    Buffer.add_string b "handoff";
    add_field b res;
    add_slots b ' ' slots

let add b = function
  | Data e -> add_data b e
  | Reply r -> add_reply b r
  | Control c -> add_control b c

let render m = Codec.render_with add m

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

(* "<rid> <alts> <arrival> <deadline>", exactly the fields after j *)
let reqinfo s j stop =
  let i1 = if j < stop then space s (j + 1) stop else stop in
  let i2 = if i1 < stop then space s (i1 + 1) stop else stop in
  let i3 = if i2 < stop then space s (i2 + 1) stop else stop in
  if i3 >= stop || space s (i3 + 1) stop < stop then
    syntax "expected '<request> <alts> <arrival> <deadline>'";
  let rid = nat ~what:"request id" s (j + 1) i1 in
  let alternatives = Codec.scan_alts s ~pos:(i1 + 1) ~stop:i2 in
  let arrival = nat ~what:"arrival" s (i2 + 1) i3 in
  let deadline = nat ~what:"deadline" s (i3 + 1) stop in
  if deadline < 1 then syntax "deadline %d < 1" deadline;
  { rid; alternatives; arrival; deadline }

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
let offer s j stop = Offer (reqinfo s j stop)
let probe s j stop = Probe (reqinfo s j stop)
let rival s j stop = Rival (reqinfo s j stop)
let assign s j stop = Assign (reqinfo s j stop)

let cancel s j stop =
  let shape = "<q> <old res> <old round>" in
  if j >= stop then syntax "expected '%s'" shape;
  ints3 ~shape "request" "old resource" "old round" s (j + 1) stop
    (fun q old_res old_t -> Cancel { q; old_res; old_t })

let swap s j stop =
  if j >= stop then syntax "truncated swap";
  let i = space s (j + 1) stop in
  let r = nat ~what:"occupant" s (j + 1) i in
  Swap { r; q = reqinfo s i stop }

let rehome s j stop =
  if j >= stop then syntax "truncated rehome";
  let i = space s (j + 1) stop in
  let res = nat ~what:"resource" s (j + 1) i in
  Rehome { r = reqinfo s i stop; res }

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

(* "<round> <reqinfo>" entries separated by ';', scanned right to left
   like the ints: the last bad entry names the error *)
let rec slots s pos stop =
  let e = Codec.field_end s ';' pos stop in
  let rest = if e < stop then slots s (e + 1) stop else [] in
  let i = space s pos e in
  let t = nat ~what:"slot round" s pos i in
  (t, reqinfo s i e) :: rest

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

let parse line =
  let len = String.length line in
  if len > max_line then
    Error (Printf.sprintf "line too long (%d bytes, max %d)" len max_line)
  else
    let k = space line 0 len in
    match message line k (if k < len then k + 1 else len) len with
    | m -> Ok m
    | exception Codec.Syntax e -> Error e
