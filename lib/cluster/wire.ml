(* Inter-node wire grammar.  Everything is a single space-separated
   line behind a leading keyword; integer fields are non-negative
   (Serve.Protocol.int_field), alternative lists use Sched.Codec's
   comma grammar, and the LDF key renders max_int as "inf" (cancel
   messages outrank everything, and 4611686018427387903 on the wire
   would be noise, not meaning). *)

module Codec = Sched.Codec
module Protocol = Serve.Protocol
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
(* rendering *)

let render_reqinfo ri =
  Printf.sprintf "%d %s %d %d" ri.rid
    (Codec.render_alts ri.alternatives)
    ri.arrival ri.deadline

let render_key k = if k = max_int then "inf" else string_of_int k

let render_env_header keyword e =
  Printf.sprintf "%s %d %d %s %c" keyword e.sender e.dst
    (render_key e.deadline_key)
    (if e.tagged then 't' else 'u')

let render_data e =
  match e.data with
  | Offer ri -> render_env_header "offer" e ^ " " ^ render_reqinfo ri
  | Probe ri -> render_env_header "probe" e ^ " " ^ render_reqinfo ri
  | Cancel { q; old_res; old_t } ->
    Printf.sprintf "%s %d %d %d" (render_env_header "cancel" e) q old_res
      old_t
  | Rival ri -> render_env_header "rival" e ^ " " ^ render_reqinfo ri
  | Swap { r; q } ->
    Printf.sprintf "%s %d %s" (render_env_header "swap" e) r
      (render_reqinfo q)
  | Rehome { r; res } ->
    Printf.sprintf "%s %d %s" (render_env_header "rehome" e) res
      (render_reqinfo r)
  | Loadq -> render_env_header "loadq" e
  | Assign ri -> render_env_header "assign" e ^ " " ^ render_reqinfo ri

let render_reply = function
  | Accept { q; res; slot } -> Printf.sprintf "accept %d %d %d" q res slot
  | Full { q; res } -> Printf.sprintf "full %d %d" q res
  | Ack { q; res } -> Printf.sprintf "ack %d %d" q res
  | Freeat { q; res; slot } -> Printf.sprintf "freeat %d %d %d" q res slot
  | Served { res; round; q } -> Printf.sprintf "served %d %d %d" res round q
  | Pong { node; round } -> Printf.sprintf "pong %d %d" node round

let render_control = function
  | Hello { node } -> Printf.sprintf "hello %s %d" version node
  | Ping { round } -> Printf.sprintf "ping %d" round
  | Join { node; round } -> Printf.sprintf "join %s %d %d" version node round
  | Handoff { res; slots = [] } -> Printf.sprintf "handoff %d" res
  | Handoff { res; slots } ->
    Printf.sprintf "handoff %d %s" res
      (String.concat ";"
         (List.map
            (fun (t, ri) -> Printf.sprintf "%d %s" t (render_reqinfo ri))
            slots))

let render = function
  | Data e -> render_data e
  | Reply r -> render_reply r
  | Control c -> render_control c

(* ------------------------------------------------------------------ *)
(* parsing *)

let ( let* ) = Result.bind

let int_field = Protocol.int_field

let parse_reqinfo ~what fields =
  match fields with
  | [ rid_s; alts_s; arrival_s; deadline_s ] ->
    let* rid = int_field ~what:(what ^ " id") rid_s in
    let* alternatives = Codec.parse_alts alts_s in
    let* arrival = int_field ~what:"arrival" arrival_s in
    let* deadline = int_field ~what:"deadline" deadline_s in
    if deadline < 1 then Error (Printf.sprintf "deadline %d < 1" deadline)
    else Ok { rid; alternatives; arrival; deadline }
  | _ -> Error (Printf.sprintf "expected '<%s> <alts> <arrival> <deadline>'" what)

let parse_key s =
  if s = "inf" then Ok max_int else int_field ~what:"deadline key" s

let parse_tag = function
  | "t" -> Ok true
  | "u" -> Ok false
  | s -> Error (Printf.sprintf "malformed tag flag %S (want t or u)" s)

(* "<sender> <dst> <key> <t|u> rest..." *)
let parse_env rest ~payload =
  match String.split_on_char ' ' rest with
  | sender_s :: dst_s :: key_s :: tag_s :: payload_fields ->
    let* sender = int_field ~what:"sender" sender_s in
    let* dst = int_field ~what:"destination" dst_s in
    let* deadline_key = parse_key key_s in
    let* tagged = parse_tag tag_s in
    let* data = payload payload_fields in
    Ok (Data { sender; dst; deadline_key; tagged; data })
  | _ -> Error "truncated envelope"

let reqinfo_payload ~what wrap fields =
  let* ri = parse_reqinfo ~what fields in
  Ok (wrap ri)

let parse_ints ~shape whats fields =
  if List.length whats <> List.length fields then
    Error (Printf.sprintf "expected '%s'" shape)
  else
    List.fold_right2
      (fun what field acc ->
         let* vs = acc in
         let* v = int_field ~what field in
         Ok (v :: vs))
      whats fields (Ok [])

let parse_handoff rest =
  let res_s, entries_s =
    match String.index_opt rest ' ' with
    | None -> (rest, "")
    | Some i ->
      ( String.sub rest 0 i,
        String.sub rest (i + 1) (String.length rest - i - 1) )
  in
  let* res = int_field ~what:"resource" res_s in
  if entries_s = "" then Ok (Control (Handoff { res; slots = [] }))
  else
    let* slots =
      List.fold_right
        (fun entry acc ->
           let* slots = acc in
           match String.split_on_char ' ' entry with
           | t_s :: ri_fields ->
             let* t = int_field ~what:"slot round" t_s in
             let* ri = parse_reqinfo ~what:"request" ri_fields in
             Ok ((t, ri) :: slots)
           | [] -> Error "empty handoff entry")
        (String.split_on_char ';' entries_s)
        (Ok [])
    in
    Ok (Control (Handoff { res; slots }))

let parse_versioned ~keyword ~shape rest k =
  match String.split_on_char ' ' rest with
  | v :: fields when v = version -> k fields
  | v :: _ when v <> version ->
    Error
      (Printf.sprintf "unsupported protocol version %S (want %s)" v version)
  | _ -> Error (Printf.sprintf "expected '%s %s %s'" keyword version shape)

let keyword_table :
  (string * (string -> (t, string) result)) list =
  [
    ( "offer",
      fun rest -> parse_env rest ~payload:(reqinfo_payload ~what:"request"
                                             (fun ri -> Offer ri)) );
    ( "probe",
      fun rest -> parse_env rest ~payload:(reqinfo_payload ~what:"request"
                                             (fun ri -> Probe ri)) );
    ( "cancel",
      fun rest ->
        parse_env rest ~payload:(fun fields ->
            let* vs =
              parse_ints ~shape:"<q> <old res> <old round>"
                [ "request"; "old resource"; "old round" ] fields
            in
            match vs with
            | [ q; old_res; old_t ] -> Ok (Cancel { q; old_res; old_t })
            | _ -> assert false) );
    ( "rival",
      fun rest -> parse_env rest ~payload:(reqinfo_payload ~what:"request"
                                             (fun ri -> Rival ri)) );
    ( "swap",
      fun rest ->
        parse_env rest ~payload:(fun fields ->
            match fields with
            | r_s :: ri_fields ->
              let* r = int_field ~what:"occupant" r_s in
              let* q = parse_reqinfo ~what:"request" ri_fields in
              Ok (Swap { r; q })
            | [] -> Error "truncated swap") );
    ( "rehome",
      fun rest ->
        parse_env rest ~payload:(fun fields ->
            match fields with
            | res_s :: ri_fields ->
              let* res = int_field ~what:"resource" res_s in
              let* r = parse_reqinfo ~what:"request" ri_fields in
              Ok (Rehome { r; res })
            | [] -> Error "truncated rehome") );
    ("loadq", fun rest -> parse_env rest ~payload:(function
         | [] -> Ok Loadq
         | _ -> Error "loadq carries no payload"));
    ( "assign",
      fun rest -> parse_env rest ~payload:(reqinfo_payload ~what:"request"
                                             (fun ri -> Assign ri)) );
    ( "accept",
      fun rest ->
        let* vs =
          parse_ints ~shape:"accept <q> <res> <slot>"
            [ "request"; "resource"; "slot" ]
            (String.split_on_char ' ' rest)
        in
        match vs with
        | [ q; res; slot ] -> Ok (Reply (Accept { q; res; slot }))
        | _ -> assert false );
    ( "full",
      fun rest ->
        let* vs =
          parse_ints ~shape:"full <q> <res>" [ "request"; "resource" ]
            (String.split_on_char ' ' rest)
        in
        match vs with
        | [ q; res ] -> Ok (Reply (Full { q; res }))
        | _ -> assert false );
    ( "ack",
      fun rest ->
        let* vs =
          parse_ints ~shape:"ack <q> <res>" [ "request"; "resource" ]
            (String.split_on_char ' ' rest)
        in
        match vs with
        | [ q; res ] -> Ok (Reply (Ack { q; res }))
        | _ -> assert false );
    ( "freeat",
      fun rest ->
        let* vs =
          parse_ints ~shape:"freeat <q> <res> <slot>"
            [ "request"; "resource"; "slot" ]
            (String.split_on_char ' ' rest)
        in
        match vs with
        | [ q; res; slot ] -> Ok (Reply (Freeat { q; res; slot }))
        | _ -> assert false );
    ( "served",
      fun rest ->
        let* vs =
          parse_ints ~shape:"served <res> <round> <q>"
            [ "resource"; "round"; "request" ]
            (String.split_on_char ' ' rest)
        in
        match vs with
        | [ res; round; q ] -> Ok (Reply (Served { res; round; q }))
        | _ -> assert false );
    ( "pong",
      fun rest ->
        let* vs =
          parse_ints ~shape:"pong <node> <round>" [ "node"; "round" ]
            (String.split_on_char ' ' rest)
        in
        match vs with
        | [ node; round ] -> Ok (Reply (Pong { node; round }))
        | _ -> assert false );
    ( "hello",
      fun rest ->
        parse_versioned ~keyword:"hello" ~shape:"<node>" rest (function
            | [ node_s ] ->
              let* node = int_field ~what:"node" node_s in
              Ok (Control (Hello { node }))
            | _ -> Error "expected 'hello rsp/1 <node>'") );
    ( "ping",
      fun rest ->
        let* round = int_field ~what:"round" rest in
        Ok (Control (Ping { round })) );
    ( "join",
      fun rest ->
        parse_versioned ~keyword:"join" ~shape:"<node> <round>" rest
          (function
            | [ node_s; round_s ] ->
              let* node = int_field ~what:"node" node_s in
              let* round = int_field ~what:"round" round_s in
              Ok (Control (Join { node; round }))
            | _ -> Error "expected 'join rsp/1 <node> <round>'") );
    ("handoff", parse_handoff);
  ]

let parse line =
  let len = String.length line in
  if len > max_line then
    Error (Printf.sprintf "line too long (%d bytes, max %d)" len max_line)
  else
    let rec dispatch = function
      | [] ->
        let keyword =
          match String.index_opt line ' ' with
          | None -> line
          | Some i -> String.sub line 0 i
        in
        Error (Printf.sprintf "unknown message %S" keyword)
      | (keyword, handler) :: rest ->
        (match Protocol.strip_keyword ~keyword line with
         | Some tail -> handler tail
         | None -> dispatch rest)
    in
    dispatch keyword_table
