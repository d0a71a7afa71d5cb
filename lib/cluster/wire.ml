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

(* parsing: one left-to-right pass over the line.  A cursor private to
   the calling domain carries the read position from field to field,
   and each integer is accumulated while its end is found, so a byte is
   read once.  A well-formed line allocates only the message it
   denotes; a malformed one raises [Codec.Syntax] with its error text.

   Error order.  A field error does not raise where it is found: it is
   held in the cursor until its group's shape is known, because a shape
   error (too few or too many fields) outranks it.  A group keeps its
   leftmost bad field (envelope heads, requests, hello/join), or with
   [~last] its rightmost (replies, cancel).  A group that ends is
   flushed before the next begins, so an envelope's bad head field
   outranks its payload, and a swap's occupant the request behind it;
   a handoff reports its last bad entry. *)

let syntax fmt = Printf.ksprintf (fun m -> raise (Codec.Syntax m)) fmt

type cursor = {
  mutable pos : int;        (* the next byte to read *)
  mutable err : string;     (* the held field error; "" when none *)
  mutable alts : int array; (* an alternative list being read *)
}

let cursor_key =
  Domain.DLS.new_key (fun () -> { pos = 0; err = ""; alts = Array.make 8 0 })

let[@inline] hold ~last c m = if last || String.length c.err = 0 then c.err <- m

(* a group has ended: raise its held field error *)
let[@inline] flush c =
  if String.length c.err > 0 then begin
    let m = c.err in
    c.err <- "";
    raise (Codec.Syntax m)
  end

let rec same s pos tok i =
  i = String.length tok
  || (String.unsafe_get s (pos + i) = String.unsafe_get tok i
      && same s pos tok (i + 1))

(* is [s.[pos .. stop-1]] exactly [tok]? *)
let is s pos stop tok = stop - pos = String.length tok && same s pos tok 0

let field s pos stop = String.sub s pos (stop - pos)

(* Fields end at a space or the range's stop; inside a handoff entry
   ([semi]) also at a ';', and a resource of an alternative list also
   at a ','. *)
let[@inline] ends ~semi ~comma s i stop =
  i = stop
  ||
  let ch = String.unsafe_get s i in
  ch = ' ' || (semi && ch = ';') || (comma && ch = ',')

let rec extent ~semi ~comma s i stop =
  if ends ~semi ~comma s i stop then i else extent ~semi ~comma s (i + 1) stop

(* The decimal digits from [i] while they last and the value stays
   below 10^18, where one more digit cannot overflow; [c.pos] is left
   at the first byte not read. *)
let rec digits c s i stop acc =
  if i < stop then
    let ch = String.unsafe_get s i in
    if ch >= '0' && ch <= '9' && acc < 100_000_000_000_000_000 then
      digits c s (i + 1) stop ((acc * 10) + Char.code ch - 48)
    else begin
      c.pos <- i;
      acc
    end
  else begin
    c.pos <- i;
    acc
  end

(* a non-negative decimal spanning exactly [pos .. stop-1] *)
let span_nat ~what s pos stop =
  let v = Codec.scan_int ~what s ~pos ~stop in
  if v < 0 then syntax "negative %s %d" what v;
  v

(* A field the digits do not end (a sign, an 18th digit, a stray byte,
   nothing at all): its whole extent goes to Codec's integer grammar for
   the value or the error text. *)
let odd_nat ~last ~semi ~comma ~what c s start stop =
  let e = extent ~semi ~comma s c.pos stop in
  c.pos <- e;
  match span_nat ~what s start e with
  | v -> v
  | exception Codec.Syntax m ->
    hold ~last c m;
    -1

(* The non-negative decimal field at [c.pos], left at its end; a bad
   one is held and reads as -1. *)
let[@inline] nat ~last ~semi ~what c s stop =
  let start = c.pos in
  let v = digits c s start stop 0 in
  if c.pos > start && ends ~semi ~comma:false s c.pos stop then v
  else odd_nat ~last ~semi ~comma:false ~what c s start stop

(* the byte at [c.pos] is the space before the next field of a group,
   or the group has the wrong number of fields *)
let[@inline] next c s stop shape =
  if c.pos < stop && String.unsafe_get s c.pos = ' ' then c.pos <- c.pos + 1
  else raise (Codec.Syntax shape)

let rec seen (a : int array) v i = i > 0 && (a.(i - 1) = v || seen a v (i - 1))

(* resources [k ..] of an alternative list; their count *)
let rec resources ~semi c s stop k =
  let start = c.pos in
  let v = digits c s start stop 0 in
  let v =
    if c.pos > start && ends ~semi ~comma:true s c.pos stop then v
    else odd_nat ~last:false ~semi ~comma:true ~what:"resource" c s start stop
  in
  if v < 0 then raise_notrace Exit;
  if seen c.alts v k then begin
    hold ~last:false c (Printf.sprintf "duplicate resource %d" v);
    raise_notrace Exit
  end;
  if k = Array.length c.alts then begin
    let a = Array.make (2 * k) 0 in
    Array.blit c.alts 0 a 0 k;
    c.alts <- a
  end;
  Array.unsafe_set c.alts k v;
  if c.pos < stop && String.unsafe_get s c.pos = ',' then begin
    c.pos <- c.pos + 1;
    resources ~semi c s stop (k + 1)
  end
  else k + 1

(* The alternative list at [c.pos], left to right: the first resource
   that is malformed, negative or a repeat (or an empty list) is held,
   the rest of the field skipped, and the list reads as [||]. *)
let alts ~semi c s stop =
  if ends ~semi ~comma:false s c.pos stop then begin
    hold ~last:false c "empty alternative list";
    [||]
  end
  else
    match resources ~semi c s stop 0 with
    (* a literal allocates in place; Array.sub is a C call *)
    | 1 -> [| c.alts.(0) |]
    | 2 -> [| c.alts.(0); c.alts.(1) |]
    | k -> Array.sub c.alts 0 k
    | exception Exit ->
      c.pos <- extent ~semi ~comma:false s c.pos stop;
      [||]

let request_shape = "expected '<request> <alts> <arrival> <deadline>'"

(* "<id> <alts> <arrival> <deadline>" at [c.pos], ending the range (or
   a handoff entry); the grammar enforces every rule of
   Request.of_array, which cannot fail here *)
let request ~semi c s stop =
  let id = nat ~last:false ~semi ~what:"request id" c s stop in
  next c s stop request_shape;
  let alternatives = alts ~semi c s stop in
  next c s stop request_shape;
  let arrival = nat ~last:false ~semi ~what:"arrival" c s stop in
  next c s stop request_shape;
  let deadline = nat ~last:false ~semi ~what:"deadline" c s stop in
  if not (c.pos = stop || (semi && String.unsafe_get s c.pos = ';')) then
    raise (Codec.Syntax request_shape);
  flush c;
  if deadline < 1 then syntax "deadline %d < 1" deadline;
  Request.of_array ~id ~arrival ~alternatives ~deadline

(* exactly two or three integer fields from [c.pos]; the rightmost bad
   one names the error *)
let ints2 ~shape w1 w2 c s stop k =
  let a = nat ~last:true ~semi:false ~what:w1 c s stop in
  next c s stop shape;
  let b = nat ~last:true ~semi:false ~what:w2 c s stop in
  if c.pos < stop then raise (Codec.Syntax shape);
  flush c;
  k a b

let ints3 ~shape w1 w2 w3 c s stop k =
  let a = nat ~last:true ~semi:false ~what:w1 c s stop in
  next c s stop shape;
  let b = nat ~last:true ~semi:false ~what:w2 c s stop in
  next c s stop shape;
  let v = nat ~last:true ~semi:false ~what:w3 c s stop in
  if c.pos < stop then raise (Codec.Syntax shape);
  flush c;
  k a b v

(* payloads: the fields after the tag flag, which [c.pos] ends *)
let payload_request c s stop =
  next c s stop request_shape;
  request ~semi:false c s stop

let offer c s stop = Offer (payload_request c s stop)
let probe c s stop = Probe (payload_request c s stop)
let rival c s stop = Rival (payload_request c s stop)
let assign c s stop = Assign (payload_request c s stop)

let cancel c s stop =
  let shape = "expected '<q> <old res> <old round>'" in
  next c s stop shape;
  ints3 ~shape "request" "old resource" "old round" c s stop
    (fun q old_res old_t -> Cancel { q; old_res; old_t })

let swap c s stop =
  next c s stop "truncated swap";
  let r = nat ~last:false ~semi:false ~what:"occupant" c s stop in
  flush c;
  Swap { r; q = payload_request c s stop }

let rehome c s stop =
  next c s stop "truncated rehome";
  let res = nat ~last:false ~semi:false ~what:"resource" c s stop in
  flush c;
  Rehome { r = payload_request c s stop; res }

let loadq c _ stop =
  if c.pos < stop then syntax "loadq carries no payload";
  Loadq

(* the LDF key: "inf" or a decimal *)
let key c s stop =
  let i = c.pos in
  if
    i + 3 <= stop && is s i (i + 3) "inf"
    && ends ~semi:false ~comma:false s (i + 3) stop
  then begin
    c.pos <- i + 3;
    max_int
  end
  else nat ~last:false ~semi:false ~what:"deadline key" c s stop

let tag c s stop =
  let i = c.pos in
  let e = extent ~semi:false ~comma:false s i stop in
  c.pos <- e;
  if e = i + 1 && String.unsafe_get s i = 't' then true
  else if e = i + 1 && String.unsafe_get s i = 'u' then false
  else begin
    hold ~last:false c
      (Printf.sprintf "malformed tag flag %S (want t or u)" (field s i e));
    false
  end

(* "<sender> <dst> <key> <t|u> payload..." from [c.pos] *)
let envelope c s stop payload =
  let truncated = "truncated envelope" in
  let sender = nat ~last:false ~semi:false ~what:"sender" c s stop in
  next c s stop truncated;
  let dst = nat ~last:false ~semi:false ~what:"destination" c s stop in
  next c s stop truncated;
  let deadline_key = key c s stop in
  next c s stop truncated;
  let tagged = tag c s stop in
  flush c;
  let data = payload c s stop in
  Data { sender; dst; deadline_key; tagged; data }

(* "<version>" from [c.pos], left at its end *)
let versioned c s stop =
  let p = c.pos in
  let i = extent ~semi:false ~comma:false s p stop in
  if not (is s p i version) then
    syntax "unsupported protocol version %S (want %s)" (field s p i) version;
  c.pos <- i

let hello_shape = "expected 'hello " ^ version ^ " <node>'"
let join_shape = "expected 'join " ^ version ^ " <node> <round>'"

let hello c s stop =
  let shape = hello_shape in
  versioned c s stop;
  next c s stop shape;
  let node = nat ~last:false ~semi:false ~what:"node" c s stop in
  if c.pos < stop then raise (Codec.Syntax shape);
  flush c;
  Control (Hello { node })

let join c s stop =
  let shape = join_shape in
  versioned c s stop;
  next c s stop shape;
  let node = nat ~last:false ~semi:false ~what:"node" c s stop in
  next c s stop shape;
  let round = nat ~last:false ~semi:false ~what:"round" c s stop in
  if c.pos < stop then raise (Codec.Syntax shape);
  flush c;
  Control (Join { node; round })

(* "<round> <request>" at [c.pos], ending at a ';' or the stop *)
let entry c s stop =
  let t = nat ~last:false ~semi:true ~what:"slot round" c s stop in
  flush c;
  next c s stop request_shape;
  (t, request ~semi:true c s stop)

(* the ';'-separated entries from [c.pos], in order; a bad entry is
   skipped to its end and the last one names the error *)
let rec entries c s stop bad =
  let e =
    match entry c s stop with
    | e -> Some e
    | exception Codec.Syntax m ->
      c.err <- "";
      bad := m;
      c.pos <- Codec.field_end s ';' c.pos stop;
      None
  in
  let rest =
    if c.pos < stop then begin
      c.pos <- c.pos + 1;
      entries c s stop bad
    end
    else []
  in
  match e with Some e -> e :: rest | None -> rest

(* "<res>" and "<res> " carry no slots, "<res> <entries>" some *)
let handoff c s stop =
  let res = nat ~last:false ~semi:false ~what:"resource" c s stop in
  flush c;
  let slots =
    if c.pos + 1 >= stop then []
    else begin
      c.pos <- c.pos + 1;
      let bad = ref "" in
      let slots = entries c s stop bad in
      if String.length !bad > 0 then raise (Codec.Syntax !bad);
      slots
    end
  in
  Control (Handoff { res; slots })

(* the keyword spans [0 .. k-1], its argument starts at [c.pos]; its
   first byte picks the candidates *)
let message c s k stop =
  match if k = 0 then ' ' else String.unsafe_get s 0 with
  | 'o' when is s 0 k "offer" -> envelope c s stop offer
  | 'p' when is s 0 k "probe" -> envelope c s stop probe
  | 'c' when is s 0 k "cancel" -> envelope c s stop cancel
  | 'r' when is s 0 k "rival" -> envelope c s stop rival
  | 's' when is s 0 k "swap" -> envelope c s stop swap
  | 'r' when is s 0 k "rehome" -> envelope c s stop rehome
  | 'l' when is s 0 k "loadq" -> envelope c s stop loadq
  | 'a' when is s 0 k "assign" -> envelope c s stop assign
  | 'a' when is s 0 k "accept" ->
    ints3 ~shape:"expected 'accept <q> <res> <slot>'" "request" "resource"
      "slot" c s stop (fun q res slot -> Reply (Accept { q; res; slot }))
  | 'f' when is s 0 k "full" ->
    ints2 ~shape:"expected 'full <q> <res>'" "request" "resource" c s stop
      (fun q res -> Reply (Full { q; res }))
  | 'a' when is s 0 k "ack" ->
    ints2 ~shape:"expected 'ack <q> <res>'" "request" "resource" c s stop
      (fun q res -> Reply (Ack { q; res }))
  | 's' when is s 0 k "served" ->
    ints3 ~shape:"expected 'served <res> <round> <q>'" "resource" "round"
      "request" c s stop (fun res round q -> Reply (Served { res; round; q }))
  | 'f' when is s 0 k "freeat" ->
    ints3 ~shape:"expected 'freeat <q> <res> <slot>'" "request" "resource"
      "slot" c s stop (fun q res slot -> Reply (Freeat { q; res; slot }))
  | 'p' when is s 0 k "pong" ->
    ints2 ~shape:"expected 'pong <node> <round>'" "node" "round" c s stop
      (fun node round -> Reply (Pong { node; round }))
  | 'p' when is s 0 k "ping" ->
    Control (Ping { round = span_nat ~what:"round" s c.pos stop })
  | 'h' when is s 0 k "hello" -> hello c s stop
  | 'j' when is s 0 k "join" -> join c s stop
  | 'h' when is s 0 k "handoff" -> handoff c s stop
  | _ -> syntax "unknown message %S" (field s 0 k)

let parse_prefix line len =
  if len < 0 || len > String.length line then
    invalid_arg
      (Printf.sprintf "Wire.parse_prefix: length %d outside a %d-byte string"
         len (String.length line));
  if len > max_line then
    Error (Printf.sprintf "line too long (%d bytes, max %d)" len max_line)
  else
    let c = Domain.DLS.get cursor_key in
    let k = Codec.field_end line ' ' 0 len in
    c.pos <- (if k < len then k + 1 else len);
    match message c line k len with
    | m -> Ok m
    | exception Codec.Syntax e ->
      c.err <- "";
      Error e

let parse line = parse_prefix line (String.length line)
