(* The reqsched wire protocol: one message per line, version rsp/1.

   The request-line grammar (tag, comma-separated alternatives,
   deadline) is Sched.Codec's — the same bytes describe a request in a
   saved trace (where the first field is the arrival round) and on the
   wire (where it is the client's tag), which is what makes recorded
   traces replayable through the server.

   Free-text fields: a client/server name is a single token (no spaces);
   reject and error details are rest-of-line (spaces allowed, newlines
   never).  Renderers never emit '\n'; the framing layer adds it. *)

module Codec = Sched.Codec

let version = Codec.version

type request = { tag : int; alternatives : int list; deadline : int }

type reject_reason =
  | Overload          (* a shard inbox was at capacity *)
  | Draining          (* server is shutting down; not admitting *)
  | Invalid of string (* malformed request; detail says why *)

type client_msg =
  | Hello of { client : string }
  | Submit of request
  | Batch of request list (* non-empty; one line, one parse, any count *)
  | Tick
  | Bye

type server_msg =
  | Welcome of { server : string }
  | Scheduled of { tag : int; round : int; resource : int }
  | Rejected of { tag : int; reason : reject_reason }
  | Expired of { tag : int }
  | Round of { round : int }
  | Error of { message : string }

(* ------------------------------------------------------------------ *)
(* rendering: straight into the caller's buffer; the string renderers
   copy one line out of a domain-private scratch buffer *)

let add_reject_reason b = function
  | Overload -> Buffer.add_string b "overload"
  | Draining -> Buffer.add_string b "draining"
  | Invalid "" -> Buffer.add_string b "invalid"
  | Invalid detail ->
    Buffer.add_string b "invalid ";
    Buffer.add_string b detail

let render_reject_reason r = Codec.render_with add_reject_reason r

let add_req b { tag; alternatives; deadline } =
  Codec.add_req_fields b ~first:tag ~alternatives ~deadline

let add_version_name b keyword name =
  Buffer.add_string b keyword;
  Buffer.add_char b ' ';
  Buffer.add_string b version;
  Buffer.add_char b ' ';
  Buffer.add_string b name

let render_client_into b = function
  | Hello { client } -> add_version_name b "hello" client
  | Submit r ->
    Buffer.add_string b "req ";
    add_req b r
  | Batch rs ->
    Buffer.add_string b "batch ";
    List.iteri
      (fun i r ->
         if i > 0 then Buffer.add_char b ';';
         add_req b r)
      rs
  | Tick -> Buffer.add_string b "tick"
  | Bye -> Buffer.add_string b "bye"

let render_server_into b = function
  | Welcome { server } -> add_version_name b "welcome" server
  | Scheduled { tag; round; resource } ->
    Buffer.add_string b "sched ";
    Codec.add_int b tag;
    Buffer.add_char b ' ';
    Codec.add_int b round;
    Buffer.add_char b ' ';
    Codec.add_int b resource
  | Rejected { tag; reason } ->
    Buffer.add_string b "rej ";
    Codec.add_int b tag;
    Buffer.add_char b ' ';
    add_reject_reason b reason
  | Expired { tag } ->
    Buffer.add_string b "exp ";
    Codec.add_int b tag
  | Round { round } ->
    Buffer.add_string b "round ";
    Codec.add_int b round
  | Error { message = "" } -> Buffer.add_string b "error"
  | Error { message } ->
    Buffer.add_string b "error ";
    Buffer.add_string b message

let render_client m = Codec.render_with render_client_into m
let render_server m = Codec.render_with render_server_into m

(* ------------------------------------------------------------------ *)
(* parsing: keyword dispatch and field scanning by index over the line
   (Sched.Codec's scanner); a well-formed line allocates only the
   message it denotes *)

(* Where [keyword]'s argument starts in [line]: the end of the line
   when [line] is [keyword] alone, past the space after it when it is
   [keyword ^ " " ^ rest]; -1 otherwise. *)
let rec same_from line keyword i =
  i = String.length keyword
  || (line.[i] = keyword.[i] && same_from line keyword (i + 1))

let keyword_end ~keyword line =
  let kl = String.length keyword and ll = String.length line in
  if ll < kl || not (same_from line keyword 0) then -1
  else if ll = kl then kl
  else if line.[kl] = ' ' then kl + 1
  else -1

let rest_from line i = String.sub line i (String.length line - i)

let strip_keyword ~keyword line =
  match keyword_end ~keyword line with
  | -1 -> None
  | i -> Some (rest_from line i)

let nonneg ~what s ~pos ~stop =
  let v = Codec.scan_int ~what s ~pos ~stop in
  if v < 0 then
    raise (Codec.Syntax (Printf.sprintf "negative %s %d" what v));
  v

(* the result of a scan, its [Codec.Syntax] error as [Error] *)
let scanned f line pos =
  match f line pos with
  | v -> Ok v
  | exception Codec.Syntax m -> Error m

let parse_hello ~keyword rest =
  match String.split_on_char ' ' rest with
  | [ v; name ] when v = version && name <> "" -> Ok name
  | v :: _ when v <> version ->
    Error
      (Printf.sprintf "unsupported protocol version %S (want %s)" v version)
  | _ -> Error (Printf.sprintf "expected '%s %s <name>'" keyword version)

let request tag alternatives deadline =
  if tag < 0 then raise (Codec.Syntax (Printf.sprintf "negative tag %d" tag));
  { tag; alternatives; deadline }

let submit tag alternatives deadline =
  Submit (request tag alternatives deadline)

let scan_submit line pos =
  Codec.scan_req_fields ~what:"tag" line ~pos ~stop:(String.length line)
    submit

(* entries separated by ';', each a request, numbered in errors *)
let scan_batch line pos =
  let stop = String.length line in
  let rec go acc i pos =
    let j = Codec.field_end line ';' pos stop in
    match
      Codec.scan_req_fields ~what:"tag" line ~pos ~stop:j request
    with
    | r when j >= stop -> Batch (List.rev (r :: acc))
    | r -> go (r :: acc) (i + 1) (j + 1)
    | exception Codec.Syntax m ->
      raise (Codec.Syntax (Printf.sprintf "batch entry %d: %s" i m))
  in
  if pos >= stop then raise (Codec.Syntax "empty batch");
  go [] 0 pos

let parse_client line =
  match line with
  | "tick" -> Ok Tick
  | "bye" -> Ok Bye
  | _ ->
    (match keyword_end ~keyword:"req" line with
     | -1 ->
       (match keyword_end ~keyword:"batch" line with
        | -1 ->
          (match keyword_end ~keyword:"hello" line with
           | -1 -> Error (Printf.sprintf "unknown client message %S" line)
           | i ->
             Result.map
               (fun client -> Hello { client })
               (parse_hello ~keyword:"hello" (rest_from line i)))
        | i -> scanned scan_batch line i)
     | i -> scanned scan_submit line i)

let parse_reject_reason s =
  match s with
  | "overload" -> Ok Overload
  | "draining" -> Ok Draining
  | _ ->
    (match strip_keyword ~keyword:"invalid" s with
     | Some detail -> Ok (Invalid detail)
     | None -> Error (Printf.sprintf "unknown reject reason %S" s))

let scan_sched line pos =
  let stop = String.length line in
  let i2 = Codec.split3 line ~pos ~stop in
  if i2 < 0 then
    raise (Codec.Syntax "expected 'sched <tag> <round> <resource>'");
  let i1 = Codec.field_end line ' ' pos i2 in
  let tag = nonneg ~what:"tag" line ~pos ~stop:i1 in
  let round = nonneg ~what:"round" line ~pos:(i1 + 1) ~stop:i2 in
  let resource = nonneg ~what:"resource" line ~pos:(i2 + 1) ~stop in
  Scheduled { tag; round; resource }

let scan_expired line pos =
  Expired { tag = nonneg ~what:"tag" line ~pos ~stop:(String.length line) }

let scan_round line pos =
  Round { round = nonneg ~what:"round" line ~pos ~stop:(String.length line) }

let parse_rejected line pos =
  let stop = String.length line in
  let i = Codec.field_end line ' ' pos stop in
  match nonneg ~what:"tag" line ~pos ~stop:i with
  | exception Codec.Syntax m -> Stdlib.Error m
  | tag ->
    let reason_s =
      if i >= stop then "" else String.sub line (i + 1) (stop - i - 1)
    in
    Result.map (fun reason -> Rejected { tag; reason })
      (parse_reject_reason reason_s)

let parse_server line =
  match keyword_end ~keyword:"sched" line with
  | i when i >= 0 -> scanned scan_sched line i
  | _ ->
    (match keyword_end ~keyword:"exp" line with
     | i when i >= 0 -> scanned scan_expired line i
     | _ ->
       (match keyword_end ~keyword:"round" line with
        | i when i >= 0 -> scanned scan_round line i
        | _ ->
          (match keyword_end ~keyword:"rej" line with
           | i when i >= 0 -> parse_rejected line i
           | _ ->
             (match keyword_end ~keyword:"welcome" line with
              | i when i >= 0 ->
                Result.map
                  (fun server -> Welcome { server })
                  (parse_hello ~keyword:"welcome" (rest_from line i))
              | _ ->
                (match keyword_end ~keyword:"error" line with
                 | i when i >= 0 -> Ok (Error { message = rest_from line i })
                 | _ ->
                   Stdlib.Error
                     (Printf.sprintf "unknown server message %S" line))))))

let is_terminal = function
  | Scheduled _ | Rejected _ | Expired _ -> true
  | Welcome _ | Round _ | Error _ -> false

let terminal_tag = function
  | Scheduled { tag; _ } | Rejected { tag; _ } | Expired { tag } -> Some tag
  | Welcome _ | Round _ | Error _ -> None
