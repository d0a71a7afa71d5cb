(* Tests for the cluster tier: ring placement properties, wire grammar
   round-trips and equivalence with the codec it replaced, the
   carrier's allocation, live-path/simulator LDF parity, decision
   parity with Localstrat across node layouts, the Theorem 3.7/3.8
   budgets measured over the wire, failure/rejoin semantics (zero lost
   terminals), metrics that mirror the stats, and the serve-mode
   integration. *)

module Request = Sched.Request
module Instance = Sched.Instance
module Engine = Sched.Engine
module Outcome = Sched.Outcome
module Local = Localstrat.Local
module Net = Distnet.Net
module Ring = Cluster.Ring
module Wire = Cluster.Wire
module Transport = Cluster.Transport
module Session = Cluster.Session
module Rng = Prelude.Rng
module Server = Serve.Server
module Client = Serve.Client

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* ring *)

let test_ring_owner_total () =
  let ring = Ring.create ~nodes:[ 0; 1; 2 ] ~n:500 () in
  for res = 0 to 499 do
    let o = Ring.owner ring res in
    if not (List.mem o [ 0; 1; 2 ]) then
      Alcotest.failf "resource %d owned by non-member %d" res o
  done

let test_ring_spread () =
  (* every node of a 3-node ring owns something on a reasonable space *)
  let ring = Ring.create ~nodes:[ 0; 1; 2 ] ~n:200 () in
  let counts = Array.make 3 0 in
  for res = 0 to 199 do
    counts.(Ring.owner ring res) <- counts.(Ring.owner ring res) + 1
  done;
  Array.iteri
    (fun node c ->
       if c = 0 then Alcotest.failf "node %d owns no resources" node)
    counts

let ring_change_gen =
  QCheck.Gen.(
    tup3 (int_range 2 6) (int_range 1 128) (int_range 0 5)
    |> map (fun (nodes, n, victim) -> (nodes, n, victim mod nodes)))

let ring_change_arb =
  QCheck.make ring_change_gen ~print:(fun (nodes, n, victim) ->
      Printf.sprintf "nodes=%d n=%d victim=%d" nodes n victim)

let test_ring_remove_moves_only_victims =
  qtest "removing a node moves only its resources" ring_change_arb
    (fun (nodes, n, victim) ->
       let ring = Ring.create ~nodes:(List.init nodes Fun.id) ~n () in
       let smaller = Ring.remove ring victim in
       List.for_all
         (fun res ->
            if Ring.owner ring res = victim then
              Ring.owner smaller res <> victim
            else Ring.owner smaller res = Ring.owner ring res)
         (List.init n Fun.id))

let test_ring_rejoin_restores_placement =
  qtest "re-adding a removed node restores the original placement"
    ring_change_arb
    (fun (nodes, n, victim) ->
       let ring = Ring.create ~nodes:(List.init nodes Fun.id) ~n () in
       let back = Ring.add (Ring.remove ring victim) victim in
       List.for_all
         (fun res -> Ring.owner back res = Ring.owner ring res)
         (List.init n Fun.id))

let test_ring_moved_is_exact () =
  let ring = Ring.create ~nodes:[ 0; 1; 2; 3 ] ~n:64 () in
  let smaller = Ring.remove ring 2 in
  let moved = Ring.moved ~before:ring ~after:smaller in
  List.iter
    (fun res ->
       check Alcotest.int
         (Printf.sprintf "moved resource %d belonged to the victim" res)
         2 (Ring.owner ring res))
    moved;
  for res = 0 to 63 do
    let did_move = Ring.owner ring res <> Ring.owner smaller res in
    check Alcotest.bool
      (Printf.sprintf "moved list exact at %d" res)
      did_move (List.mem res moved)
  done

(* The placement rule restated from its definition: splitmix64's
   finalizer over even pre-images for the 64 points of each member and
   odd ones for resource keys; a resource belongs to the first point at
   or after its key, else to the smallest point. *)
module Ring_model = struct
  let mix z =
    let z = Int64.of_int z in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_int (Int64.logand z Int64.max_int)

  let points members =
    List.concat_map
      (fun node ->
         List.init 64 (fun replica ->
             (mix (((node * 0x10001) + replica + 1) * 2), node)))
      members

  (* the member of the smallest (point, node) in [l] *)
  let smallest l = snd (List.fold_left min (max_int, max_int) l)

  let owner points res =
    let key = mix ((res * 2) + 1) in
    match List.filter (fun (p, _) -> p >= key) points with
    | [] -> smallest points
    | later -> smallest later
end

let ring_chain_gen =
  QCheck.Gen.(
    triple
      (list_size (int_range 1 5) (int_range 0 7))
      (int_range 1 96)
      (list_size (int_range 1 8) (int_range 0 7)))

let ring_chain_arb =
  QCheck.make ring_chain_gen ~print:(fun (nodes, n, ops) ->
      Printf.sprintf "nodes=[%s] n=%d ops=[%s]"
        (String.concat ";" (List.map string_of_int nodes))
        n
        (String.concat ";" (List.map string_of_int ops)))

(* Random create/remove/add chains: each op removes the node when it is
   a member (and not the last), else adds it.  After every step the
   owner table is the brute-force scan, and [moved] is exactly the set
   whose scanned owner changed. *)
let test_ring_table_is_the_scan =
  qtest ~count:60 "owner table equals the brute-force scan" ring_chain_arb
    (fun (nodes, n, ops) ->
       let nodes = List.sort_uniq compare nodes in
       let agrees ring =
         let points = Ring_model.points (Ring.members ring) in
         List.for_all
           (fun res -> Ring.owner ring res = Ring_model.owner points res)
           (List.init n Fun.id)
         || QCheck.Test.fail_reportf "owner differs from the scan over [%s]"
              (String.concat ";"
                 (List.map string_of_int (Ring.members ring)))
       in
       let ring = Ring.create ~nodes ~n () in
       agrees ring
       && snd
            (List.fold_left
               (fun (ring, ok) node ->
                  let next =
                    if not (Ring.mem ring node) then Ring.add ring node
                    else if List.length (Ring.members ring) > 1 then
                      Ring.remove ring node
                    else ring
                  in
                  let changed =
                    List.filter
                      (fun res -> Ring.owner ring res <> Ring.owner next res)
                      (List.init n Fun.id)
                  in
                  ( next,
                    ok && agrees next
                    && Ring.moved ~before:ring ~after:next = changed ))
               (ring, true) ops))

(* The session's placement follows the router's view of membership:
   all nodes until a failure is detected, the survivors after, all
   nodes again after the rejoin. *)
let test_session_owner_follows_membership () =
  let n = 48 in
  let s =
    Session.create ~strategy:Session.Local_fix ~nodes:3 ~n ~d:3 ()
  in
  let same_as members what =
    let ring = Ring.create ~nodes:members ~n () in
    for res = 0 to n - 1 do
      if Session.owner s res <> Ring.owner ring res then
        Alcotest.failf "%s: resource %d on node %d, a fresh ring says %d" what
          res (Session.owner s res) (Ring.owner ring res)
    done
  in
  let step () = ignore (Session.step s) in
  step ();
  same_as [ 0; 1; 2 ] "before the failure";
  Session.kill s 1;
  step ();
  same_as [ 0; 1; 2 ] "failure not yet detected";
  step ();
  same_as [ 0; 2 ] "after detection";
  Session.rejoin s 1;
  same_as [ 0; 1; 2 ] "after the rejoin";
  step ();
  same_as [ 0; 1; 2 ] "a round after the rejoin"

(* ------------------------------------------------------------------ *)
(* wire grammar *)

let request_gen =
  QCheck.Gen.(
    map
      (fun (id, alts, arrival, deadline) ->
         let alternatives = Array.of_list (List.sort_uniq compare alts) in
         Request.of_array ~id ~arrival ~alternatives ~deadline)
      (tup4 (int_range 0 9999)
         (list_size (int_range 1 4) (int_range 0 99))
         (int_range 0 500) (int_range 1 40)))

let env_gen data tagged =
  QCheck.Gen.(
    map
      (fun (sender, dst, deadline_key) ->
         Wire.Data { Wire.sender; dst; deadline_key; tagged; data })
      (tup3 (int_range 0 9999) (int_range 0 99)
         (frequency [ (1, return max_int); (9, int_range 0 2000) ])))

let wire_gen =
  QCheck.Gen.(
    request_gen >>= fun ri ->
    tup3 (int_range 0 9999) (int_range 0 99) (int_range 0 500)
    >>= fun (a, b, c) ->
    oneof
      [
        env_gen (Wire.Offer ri) false;
        env_gen (Wire.Probe ri) false;
        env_gen (Wire.Cancel { q = a; old_res = b; old_t = c }) false;
        env_gen (Wire.Rival ri) false;
        env_gen (Wire.Swap { r = a; q = ri }) true;
        env_gen (Wire.Rehome { r = ri; res = b }) false;
        env_gen Wire.Loadq false;
        env_gen (Wire.Assign ri) false;
        return (Wire.Reply (Wire.Accept { q = a; res = b; slot = c }));
        return (Wire.Reply (Wire.Full { q = a; res = b }));
        return (Wire.Reply (Wire.Ack { q = a; res = b }));
        return (Wire.Reply (Wire.Freeat { q = a; res = b; slot = c }));
        return (Wire.Reply (Wire.Served { res = b; round = c; q = a }));
        return (Wire.Reply (Wire.Pong { node = b; round = c }));
        return (Wire.Control (Wire.Hello { node = b }));
        return (Wire.Control (Wire.Ping { round = c }));
        return (Wire.Control (Wire.Join { node = b; round = c }));
        return (Wire.Control (Wire.Handoff { res = b; slots = [] }));
        return
          (Wire.Control
             (Wire.Handoff { res = b; slots = [ (c, ri); (c + 1, ri) ] }));
      ])

let wire_arb = QCheck.make wire_gen ~print:Wire.render

(* The model of the codec: the Printf renderer and the split-based
   parser that Wire's buffer renderer and index scanner replaced, kept
   verbatim.  [Wire.render] must match it byte for byte, and
   [Wire.parse] must give the same [Ok] value or the same [Error] text
   on every line. *)
module Model = struct
  open Wire

  (* the helpers it borrowed from Serve.Protocol and Sched.Codec *)
  let int_field ~what s =
    match Sched.Codec.scan_int ~what s ~pos:0 ~stop:(String.length s) with
    | v when v < 0 -> Error (Printf.sprintf "negative %s %d" what v)
    | v -> Ok v
    | exception Sched.Codec.Syntax m -> Error m

  let strip_keyword ~keyword line =
    let kl = String.length keyword in
    if line = keyword then Some ""
    else if String.starts_with ~prefix:(keyword ^ " ") line then
      Some (String.sub line (kl + 1) (String.length line - kl - 1))
    else None

  let render_alts alts = String.concat "," (List.map string_of_int alts)

  let parse_alts s =
    match Sched.Codec.scan_alts s ~pos:0 ~stop:(String.length s) with
    | alts -> Ok alts
    | exception Sched.Codec.Syntax m -> Error m


  let render_reqinfo (ri : Request.t) =
    Printf.sprintf "%d %s %d %d" ri.id
      (render_alts (Array.to_list ri.alternatives))
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


  let ( let* ) = Result.bind

  let parse_reqinfo ~what fields =
    match fields with
    | [ rid_s; alts_s; arrival_s; deadline_s ] ->
      let* rid = int_field ~what:(what ^ " id") rid_s in
      let* alternatives = parse_alts alts_s in
      let* arrival = int_field ~what:"arrival" arrival_s in
      let* deadline = int_field ~what:"deadline" deadline_s in
      if deadline < 1 then Error (Printf.sprintf "deadline %d < 1" deadline)
      else
        Ok
          (Request.of_array ~id:rid ~arrival
             ~alternatives:(Array.of_list alternatives) ~deadline)
    | _ ->
      Error
        (Printf.sprintf "expected '<%s> <alts> <arrival> <deadline>'" what)

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
          (match strip_keyword ~keyword line with
           | Some tail -> handler tail
           | None -> dispatch rest)
      in
      dispatch keyword_table
end


let test_wire_roundtrip =
  qtest ~count:500 "wire messages round-trip" wire_arb (fun msg ->
      match Wire.parse (Wire.render msg) with
      | Ok parsed -> parsed = msg
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_wire_render_matches_model =
  qtest ~count:1000 "render is byte-identical to the model" wire_arb
    (fun msg -> Wire.render msg = Model.render msg)

(* [m] with exactly one field changed, picked by [k]: a number moved,
   the tag flipped, an alternative added or dropped, a handoff entry
   added, dropped or edited, or the constructor swapped for one of the
   same shape *)
let one_field_apart m k =
  let req (r : Request.t) =
    let id = r.Request.id and arrival = r.Request.arrival
    and alternatives = r.Request.alternatives
    and deadline = r.Request.deadline in
    match k / 8 mod 5 with
    | 0 -> Request.of_array ~id:(id + 1) ~arrival ~alternatives ~deadline
    | 1 -> Request.of_array ~id ~arrival:(arrival + 1) ~alternatives ~deadline
    | 2 -> Request.of_array ~id ~arrival ~alternatives ~deadline:(deadline + 1)
    | 3 when Array.length alternatives > 1 ->
      Request.of_array ~id ~arrival ~deadline
        ~alternatives:(Array.sub alternatives 0 (Array.length alternatives - 1))
    | _ ->
      Request.of_array ~id ~arrival ~deadline
        ~alternatives:
          (Array.append alternatives
             [| 1 + Array.fold_left max 0 alternatives |])
  in
  let data (d : Wire.data) =
    match (d, k mod 2) with
    | Wire.Offer r, 0 -> Wire.Probe r
    | Wire.Offer r, _ -> Wire.Offer (req r)
    | Wire.Probe r, 0 -> Wire.Rival r
    | Wire.Probe r, _ -> Wire.Probe (req r)
    | Wire.Rival r, 0 -> Wire.Assign r
    | Wire.Rival r, _ -> Wire.Rival (req r)
    | Wire.Assign r, 0 -> Wire.Offer r
    | Wire.Assign r, _ -> Wire.Assign (req r)
    | Wire.Cancel c, 0 -> Wire.Cancel { c with q = c.q + 1 }
    | Wire.Cancel c, _ -> Wire.Cancel { c with old_t = c.old_t + 1 }
    | Wire.Swap w, 0 -> Wire.Swap { w with r = w.r + 1 }
    | Wire.Swap w, _ -> Wire.Swap { w with q = req w.q }
    | Wire.Rehome h, 0 -> Wire.Rehome { h with res = h.res + 1 }
    | Wire.Rehome h, _ -> Wire.Rehome { h with r = req h.r }
    | Wire.Loadq, _ ->
      Wire.Assign
        (Request.of_array ~id:0 ~arrival:0 ~alternatives:[| 0 |] ~deadline:1)
  in
  match m with
  | Wire.Data e ->
    Wire.Data
      (match k mod 5 with
       | 0 -> { e with Wire.sender = e.Wire.sender + 1 }
       | 1 -> { e with Wire.dst = e.Wire.dst + 1 }
       | 2 ->
         { e with
           Wire.deadline_key =
             (if e.Wire.deadline_key = max_int then 0
              else e.Wire.deadline_key + 1) }
       | 3 -> { e with Wire.tagged = not e.Wire.tagged }
       | _ -> { e with Wire.data = data e.Wire.data })
  | Wire.Reply r ->
    Wire.Reply
      (match (r, k mod 2) with
       | Wire.Accept a, 0 -> Wire.Accept { a with slot = a.slot + 1 }
       | Wire.Accept a, _ -> Wire.Freeat { q = a.q; res = a.res; slot = a.slot }
       | Wire.Freeat a, _ -> Wire.Freeat { a with res = a.res + 1 }
       | Wire.Full f, 0 -> Wire.Ack { q = f.q; res = f.res }
       | Wire.Full f, _ -> Wire.Full { f with q = f.q + 1 }
       | Wire.Ack a, _ -> Wire.Ack { a with res = a.res + 1 }
       | Wire.Served v, _ -> Wire.Served { v with round = v.round + 1 }
       | Wire.Pong p, _ -> Wire.Pong { p with node = p.node + 1 })
  | Wire.Control c ->
    Wire.Control
      (match c with
       | Wire.Hello h -> Wire.Hello { node = h.node + 1 }
       | Wire.Ping p -> Wire.Ping { round = p.round + 1 }
       | Wire.Join j -> Wire.Join { j with round = j.round + 1 }
       | Wire.Handoff { res; slots } ->
         let fresh =
           Request.of_array ~id:0 ~arrival:0 ~alternatives:[| 0 |] ~deadline:1
         in
         let res, slots =
           match (slots, k mod 4) with
           | _, 0 -> (res + 1, slots)
           | (t, r) :: rest, 1 -> (res, (t + 1, r) :: rest)
           | (t, r) :: rest, 2 -> (res, (t, req r) :: rest)
           | _ :: rest, _ -> (res, rest)
           | [], _ -> (res, [ (0, fresh) ])
         in
         Wire.Handoff { res; slots })

let test_wire_equal_is_structural =
  qtest ~count:1000 "Wire.equal agrees with structural equality"
    (QCheck.make
       QCheck.Gen.(triple wire_gen wire_gen nat)
       ~print:(fun (a, b, k) ->
           Printf.sprintf "%s / %s / %d" (Wire.render a) (Wire.render b) k))
    (fun (a, b, k) ->
       let same x y = Wire.equal x y = (x = y) in
       let copy =
         match Wire.parse (Wire.render a) with Ok c -> c | Error e -> failwith e
       in
       same a b && same b a && Wire.equal a copy && Wire.equal copy a
       && List.for_all
            (fun k ->
               let a' = one_field_apart a k in
               same a a' && same a' a && not (Wire.equal a a'))
            [ k; k + 1; k + 2; k + 3; k + 4; k + 8; k + 16; k + 24; k + 32 ])

(* a rendered line and single-byte edits of it: a byte replaced,
   inserted or deleted, drawn from the grammar's own alphabet and from
   arbitrary bytes; consecutive edits are also applied in pairs, so
   that two fields can be bad at once *)
type edit = Replace of int * char | Insert of int * char | Delete of int

let apply_edit line = function
  | Replace (i, c) ->
    let i = i mod String.length line in
    String.mapi (fun j x -> if j = i then c else x) line
  | Insert (i, c) ->
    let i = i mod (String.length line + 1) in
    String.sub line 0 i ^ String.make 1 c
    ^ String.sub line i (String.length line - i)
  | Delete i ->
    let i = i mod String.length line in
    String.sub line 0 i ^ String.sub line (i + 1) (String.length line - i - 1)

let edit_gen =
  QCheck.Gen.(
    let byte =
      frequency
        [ (4, oneofl (List.of_seq (String.to_seq "0123456789 ,;-tux")));
          (1, oneofl [ 'i'; 'n'; 'f'; '+'; '_'; 'r'; '/'; 'a' ]);
          (1, char) ]
    in
    oneof
      [ map2 (fun i c -> Replace (i, c)) nat byte;
        map2 (fun i c -> Insert (i, c)) nat byte;
        map (fun i -> Delete i) nat ])

let show_result = function
  | Ok m -> "Ok " ^ Model.render m
  | Error e -> "Error " ^ e

let parse_agrees line =
  let got = Wire.parse line and want = Model.parse line in
  got = want
  || QCheck.Test.fail_reportf "%S: parse gives %s, the model %s" line
       (show_result got) (show_result want)

let test_wire_parse_matches_model =
  qtest ~count:1000 "parse agrees with the model on edited lines"
    (QCheck.make
       QCheck.Gen.(pair wire_gen (list_size (int_range 1 24) edit_gen))
       ~print:(fun (m, _) -> Wire.render m))
    (fun (msg, edits) ->
       let line = Wire.render msg in
       let rec pairs = function
         | a :: (b :: _ as rest) ->
           parse_agrees (apply_edit (apply_edit line a) b) && pairs rest
         | [ _ ] | [] -> true
       in
       parse_agrees line
       && List.for_all (fun e -> parse_agrees (apply_edit line e)) edits
       && pairs edits)

(* One rendered sample of every constructor, for the edit sweep: a
   three-resource request, an "inf" key and a tagged envelope among
   them, and a handoff of two entries. *)
let sweep_samples =
  let r =
    Request.of_array ~id:4021 ~arrival:37 ~alternatives:[| 12; 3; 40 |]
      ~deadline:6
  and r2 =
    Request.of_array ~id:4022 ~arrival:38 ~alternatives:[| 5 |] ~deadline:2
  in
  let env ?(tagged = false) ?(key = 42) data =
    Wire.Data { Wire.sender = 905; dst = 12; deadline_key = key; tagged; data }
  in
  [
    env (Wire.Offer r);
    env ~key:max_int (Wire.Probe r);
    env (Wire.Cancel { q = 905; old_res = 3; old_t = 39 });
    env (Wire.Rival r);
    env ~tagged:true (Wire.Swap { r = 17; q = r });
    env (Wire.Rehome { r; res = 40 });
    env Wire.Loadq;
    env (Wire.Assign r2);
    Wire.Reply (Wire.Accept { q = 905; res = 12; slot = 41 });
    Wire.Reply (Wire.Full { q = 905; res = 12 });
    Wire.Reply (Wire.Ack { q = 905; res = 3 });
    Wire.Reply (Wire.Freeat { q = 905; res = 40; slot = 43 });
    Wire.Reply (Wire.Served { res = 12; round = 41; q = 905 });
    Wire.Reply (Wire.Pong { node = 2; round = 41 });
    Wire.Control (Wire.Hello { node = 2 });
    Wire.Control (Wire.Ping { round = 41 });
    Wire.Control (Wire.Join { node = 2; round = 41 });
    Wire.Control (Wire.Handoff { res = 12; slots = [ (41, r); (43, r2) ] });
  ]

(* Every truncation, one-byte deletion and one-byte replacement from
   the alphabet below, of every sample, and every pair of replacements
   by 'x' or '-' (two bad fields at once): the parser and the model
   agree at every byte, so each error text and its precedence is pinned
   deterministically.  Truncations also go through [parse_prefix] over
   the whole line, which must not read past its length. *)
let test_wire_edit_sweep () =
  let alphabet = [ '0'; '9'; ' '; ','; ';'; '-'; 't'; 'u'; 'i'; 'x' ] in
  let checked = ref 0 in
  let agree what line got =
    incr checked;
    let want = Model.parse line in
    if got <> want then
      Alcotest.failf "%s %S: parse gives %s, the model %s" what line
        (show_result got) (show_result want)
  in
  List.iter
    (fun m ->
       let line = Wire.render m in
       let len = String.length line in
       agree "sample" line (Wire.parse line);
       for k = 0 to len - 1 do
         let prefix = String.sub line 0 k in
         agree "truncation" prefix (Wire.parse prefix);
         agree "prefix" prefix (Wire.parse_prefix line k)
       done;
       for i = 0 to len - 1 do
         let deleted = apply_edit line (Delete i) in
         agree "deletion" deleted (Wire.parse deleted);
         List.iter
           (fun c ->
              if line.[i] <> c then
                let replaced = apply_edit line (Replace (i, c)) in
                agree "replacement" replaced (Wire.parse replaced))
           alphabet;
         for j = i + 1 to len - 1 do
           List.iter
             (fun (a, b) ->
                let twice =
                  apply_edit (apply_edit line (Replace (i, a))) (Replace (j, b))
                in
                agree "two replacements" twice (Wire.parse twice))
             [ ('x', 'x'); ('-', 'x'); ('x', '-') ]
         done
       done)
    sweep_samples;
  check Alcotest.bool "every sample swept" true (!checked > 5000)

let test_wire_rejects () =
  let rejects line want =
    match Wire.parse line with
    | Error m -> check Alcotest.string (Printf.sprintf "%S" line) want m
    | Ok _ -> Alcotest.failf "%S accepted" line
  in
  rejects (String.make (Wire.max_line + 1) 'x')
    "line too long (65537 bytes, max 65536)";
  List.iter
    (fun (line, want) -> rejects line want)
    [
      ("hello rsp/0 3", "unsupported protocol version \"rsp/0\" (want rsp/1)");
      ("join rsp/9 1 4", "unsupported protocol version \"rsp/9\" (want rsp/1)");
      ("", "unknown message \"\"");
      ("bogus 1 2 3", "unknown message \"bogus\"");
      ("offer 1 2 3", "truncated envelope");
      ("offer 1 2 3 u 4", "expected '<request> <alts> <arrival> <deadline>'");
      ("offer 1 2 3 x 4 0,1 0 2", "malformed tag flag \"x\" (want t or u)");
      ("offer -1 2 3 u 4 0,1 0 2", "negative sender -1");
      ("offer 1 2 3 u 4 0,0 0 2", "duplicate resource 0");
      ("offer 1 2 3 u 4 0,1 0 0", "deadline 0 < 1");
      ("offer 1 2 inf u 4 0,1 x 2", "malformed arrival \"x\"");
      ("swap 1 2 3 t", "truncated swap");
      ("rehome 1 2 3 u", "truncated rehome");
      ("loadq 1 2 3 u 4", "loadq carries no payload");
      ("cancel 1 2 3 u 4 5", "expected '<q> <old res> <old round>'");
      (* several bad integer fields: the last one names the error *)
      ("cancel 1 2 3 u x y z", "malformed old round \"z\"");
      ("accept 1 2", "expected 'accept <q> <res> <slot>'");
      ("accept x y 3", "malformed resource \"y\"");
      ("pong 1", "expected 'pong <node> <round>'");
      ("ping 1 2", "malformed round \"1 2\"");
      ("hello rsp/1", "expected 'hello rsp/1 <node>'");
      ("join rsp/1 1", "expected 'join rsp/1 <node> <round>'");
      ("handoff 3 0 4 0,1 0",
       "expected '<request> <alts> <arrival> <deadline>'");
      (* the last bad handoff entry names the error *)
      ("handoff 3 x 4 0,1 0 2;y 4 0,1 0 2", "malformed slot round \"y\"");
    ]

let test_wire_parse_prefix_bounds () =
  (* a prefix parses on its own; a length outside the string is refused
     before any byte is read *)
  (match Wire.parse_prefix "full 1 2;junk" 8 with
   | Ok m ->
     check Alcotest.bool "prefix" true
       (m = Wire.Reply (Wire.Full { q = 1; res = 2 }))
   | Error e -> Alcotest.failf "prefix rejected: %s" e);
  List.iter
    (fun len ->
       match Wire.parse_prefix "full 1 2" len with
       | _ -> Alcotest.failf "length %d accepted" len
       | exception Invalid_argument _ -> ())
    [ 9; 100; -1 ]

let test_wire_oversize_via_render () =
  (* a handoff big enough to overflow the line budget must be refused
     by parse; render itself stays mechanical *)
  let ri =
    Request.of_array ~id:123456 ~alternatives:[| 10; 20 |] ~arrival:9
      ~deadline:7
  in
  let slots = List.init 4000 (fun i -> (i, ri)) in
  let line = Wire.render (Wire.Control (Wire.Handoff { res = 1; slots })) in
  check Alcotest.bool "line is oversize" true
    (String.length line > Wire.max_line);
  match Wire.parse line with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize handoff accepted"

(* ------------------------------------------------------------------ *)
(* live-path parity: the transport's LDF cut is Distnet's (satellite) *)

let parity_gen =
  QCheck.Gen.(
    tup4 (int_range 1 6) (int_range 1 5) (int_range 0 10000)
      (int_range 1 60))

let parity_arb =
  QCheck.make parity_gen ~print:(fun (n, cap, seed, k) ->
      Printf.sprintf "n=%d capacity=%d seed=%d k=%d" n cap seed k)

let test_net_transport_parity =
  qtest ~count:200 "Transport drops exactly what Distnet.Net drops"
    parity_arb
    (fun (n, capacity, seed, k) ->
       let rng = Rng.create ~seed in
       let specs =
         List.init k (fun i ->
             let sender = Rng.int rng 20 in
             let dst = Rng.int rng n in
             let deadline = 1 + Rng.int rng 8 in
             let tagged = Rng.int rng 10 = 0 in
             (i, sender, dst, deadline, tagged))
       in
       let priority ~sender ~dst:_ = sender mod 3 in
       let net = Net.create ~n ~capacity ~priority () in
       let net_msgs =
         List.map
           (fun (i, sender, dst, deadline, tagged) ->
              { Net.sender; dst; deadline_key = deadline; tagged; payload = i })
           specs
       in
       let net_out =
         List.map (fun (_, ok) -> ok) (Net.exchange net net_msgs)
       in
       let transport = Transport.create ~n ~capacity ~priority () in
       let envs =
         List.map
           (fun (_, sender, dst, deadline, tagged) ->
              {
                Wire.sender;
                dst;
                deadline_key = deadline;
                tagged;
                data =
                  Wire.Offer
                    (Request.of_array ~id:sender ~alternatives:[| dst |]
                       ~arrival:0 ~deadline);
              })
           specs
       in
       let transport_out =
         List.map
           (fun (_, st) -> st = Transport.Delivered)
           (Transport.exchange transport
              ~owner:(fun _ -> 0)
              ~alive:(fun _ -> true)
              envs)
       in
       net_out = transport_out)

let test_transport_dead_node_bounces () =
  let transport = Transport.create ~n:4 ~capacity:2 () in
  let env dst =
    {
      Wire.sender = dst;
      dst;
      deadline_key = 5;
      tagged = false;
      data = Wire.Loadq;
    }
  in
  let results =
    Transport.exchange transport
      ~owner:(fun res -> res mod 2)
      ~alive:(fun node -> node = 0)
      [ env 0; env 1; env 2; env 3 ]
  in
  let statuses = List.map snd results in
  check Alcotest.bool "even resources delivered" true
    (List.nth statuses 0 = Transport.Delivered
     && List.nth statuses 2 = Transport.Delivered);
  check Alcotest.bool "odd resources dead" true
    (List.nth statuses 1 = Transport.Dead
     && List.nth statuses 3 = Transport.Dead);
  check Alcotest.int "dead drops counted" 2
    (Transport.dropped_dead transport)

(* The wire gate sees every line before the capacity cut: a line the
   parser refuses stops the exchange even when its message would lose
   the LDF cut, is tagged, or is addressed to a dead node, and stops a
   reply or a control message too.  A negative sender, key or field
   renders with a '-', which the grammar refuses. *)
let test_transport_gate_covers_every_line () =
  let env ?(tagged = false) ~sender ~dst ~key () =
    {
      Wire.sender;
      dst;
      deadline_key = key;
      tagged;
      data =
        Wire.Offer
          (Request.of_array ~id:7 ~arrival:0 ~alternatives:[| 0; 1 |]
             ~deadline:4);
    }
  in
  let winner = env ~sender:1 ~dst:0 ~key:50 () in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: a line the parser refuses passed the gate" what
    | exception Invalid_argument m ->
      if not (String.starts_with ~prefix:"Transport: unparsable wire line" m)
      then Alcotest.failf "%s: raised %S" what m
  in
  let exchange ?(alive = fun _ -> true) envs =
    let transport = Transport.create ~n:4 ~capacity:1 () in
    Transport.exchange transport ~owner:(fun res -> res mod 2) ~alive envs
  in
  (* the same batches with well-formed lines pass, and the loser loses *)
  (match exchange [ winner; env ~sender:2 ~dst:0 ~key:10 () ] with
   | [ (_, Transport.Delivered); (_, Transport.Bounced) ] -> ()
   | _ -> Alcotest.fail "control batch: want delivered, bounced");
  refused "negative key, losing the cut" (fun () ->
      exchange [ winner; env ~sender:2 ~dst:0 ~key:(-3) () ]);
  refused "negative sender, losing the cut" (fun () ->
      exchange [ winner; env ~sender:(-2) ~dst:0 ~key:10 () ]);
  refused "negative sender, tagged" (fun () ->
      exchange [ winner; env ~tagged:true ~sender:(-4) ~dst:0 ~key:60 () ]);
  refused "negative key, to a dead node" (fun () ->
      exchange
        ~alive:(fun node -> node = 0)
        [ winner; env ~sender:3 ~dst:1 ~key:(-1) () ]);
  let transport = Transport.create ~n:4 ~capacity:1 () in
  refused "reply" (fun () ->
      Transport.respond transport (Wire.Accept { q = -1; res = 0; slot = 3 }));
  refused "control" (fun () ->
      Transport.control transport (Wire.Ping { round = -1 }))

(* The carrier's allocation, pinned just above the measured figures
   (39.8 words per offer, 10 per reply): a per-message closure, list
   copy, metrics update or Printf in the wire gate fails it.  The batch
   is 64 offers over 16 resources at capacity 2, so most of them
   bounce; the count includes each line, its re-parsed message, the
   mailbox envelope and the result list. *)
let minor_words_per iters per f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int (iters * per)

let test_transport_words () =
  let pin what bound words =
    if words > bound then
      Alcotest.failf "%s allocates %.2f minor words (bound %.1f)" what words
        bound
  in
  let transport = Transport.create ~n:16 ~capacity:2 () in
  let offers =
    List.init 64 (fun i ->
        {
          Wire.sender = 1000 + i;
          dst = i mod 16;
          deadline_key = 2000 + (i mod 5);
          tagged = false;
          data =
            Wire.Offer
              (Request.of_array ~id:(1000 + i)
                 ~alternatives:[| i mod 16; (i + 5) mod 16 |] ~arrival:1997
                 ~deadline:4);
        })
  in
  pin "Transport.exchange per message" 40.5
    (minor_words_per 200 64 (fun () ->
         ignore
           (Transport.exchange transport ~owner:(fun _ -> 0)
              ~alive:(fun _ -> true) offers)));
  let reply = Wire.Accept { q = 123456; res = 42; slot = 1999 } in
  pin "Transport.respond per line" 10.5
    (minor_words_per 10_000 1 (fun () ->
         ignore (Transport.respond transport reply)))

(* ------------------------------------------------------------------ *)
(* decision parity with Localstrat across node layouts *)

let random_instance ~n ~d ~rounds ~load ~seed =
  let rng = Rng.create ~seed in
  Adversary.Random_workload.make ~rng ~n ~d ~rounds ~load ()

let outcomes_equal ~what (a : Outcome.t) (b : Outcome.t) =
  check Alcotest.int (what ^ ": served") a.Outcome.served b.Outcome.served;
  Array.iteri
    (fun id s ->
       if b.Outcome.served_at.(id) <> s then
         Alcotest.failf "%s: request %d served at %s vs %s" what id
           (match s with
            | Some (res, round) -> Printf.sprintf "(%d,%d)" res round
            | None -> "-")
           (match b.Outcome.served_at.(id) with
            | Some (res, round) -> Printf.sprintf "(%d,%d)" res round
            | None -> "-"))
    a.Outcome.served_at

(* an LDF tie-break other than the default, to show parity does not
   hinge on the network's default priority *)
let salted_priority salt ~sender ~dst =
  ((sender * 7919) lxor (dst * 104729) lxor salt) land 3

(* seed 3, default priority: (messages, bounced) per strategy *)
let pinned_seed3 =
  [ ("fix", (721, 15)); ("eager", (4077, 267));
    ("eager_compact", (4077, 35)) ]

(* Decisions and traffic both match the simulator: the cluster charges
   exactly the messages, bounces and communication rounds that
   [Distnet.Net] does, on every layout. *)
let test_cluster_matches_local () =
  List.iter
    (fun (pname, priority) ->
       List.iter
         (fun (name, with_stats, strategy) ->
            List.iter
              (fun seed ->
                 let inst =
                   random_instance ~n:9 ~d:4 ~rounds:40 ~load:1.5 ~seed
                 in
                 let factory, local_stats = with_stats priority in
                 let reference = Engine.run inst factory in
                 let ls : Local.stats = local_stats () in
                 List.iter
                   (fun nodes ->
                      let what =
                        Printf.sprintf "%s %s seed=%d nodes=%d" name pname
                          seed nodes
                      in
                      let captured = ref None in
                      let o =
                        Engine.run inst
                          (Session.factory ?priority
                             ~on_create:(fun s -> captured := Some s)
                             ~strategy ~nodes ())
                      in
                      outcomes_equal ~what reference o;
                      check Alcotest.bool "consistent" true
                        (Outcome.is_consistent o);
                      let s =
                        match !captured with
                        | None -> Alcotest.fail "factory never ran"
                        | Some s -> Session.stats s
                      in
                      check Alcotest.int (what ^ ": no serve conflicts") 0
                        s.Session.serve_conflicts;
                      List.iter
                        (fun (field, local, cluster) ->
                           check Alcotest.int (what ^ ": " ^ field) local
                             cluster)
                        [
                          ("messages", ls.messages, s.Session.messages);
                          ("bounced", ls.bounced, s.Session.bounced);
                          ( "comm_rounds_total",
                            ls.comm_rounds_total,
                            s.Session.comm_rounds_total );
                          ( "comm_rounds_max",
                            ls.comm_rounds_max,
                            s.Session.comm_rounds_max );
                          ( "scheduling_rounds",
                            ls.scheduling_rounds,
                            s.Session.scheduling_rounds );
                        ];
                      (* A_local_fix speaks at most twice per request *)
                      if strategy = Session.Local_fix then
                        check Alcotest.bool (what ^ ": <= 2 msgs/request")
                          true
                          (s.Session.messages <= 2 * s.Session.requests))
                   [ 1; 2; 3; 5 ];
                 (* pinned, so a protocol change that moves simulator and
                    cluster together still shows *)
                 if seed = 3 && Option.is_none priority then
                   check
                     Alcotest.(pair int int)
                     (name ^ " seed=3: messages, bounced")
                     (List.assoc name pinned_seed3)
                     (ls.messages, ls.bounced))
              [ 3; 17 ])
         [
           ( "fix",
             (fun priority -> Local.fix_with_stats ?priority ()),
             Session.Local_fix );
           ( "eager",
             (fun priority -> Local.eager_with_stats ?priority ()),
             Session.Local_eager { compact = false } );
           ( "eager_compact",
             (fun priority ->
                Local.eager_with_stats ~compact:true ?priority ()),
             Session.Local_eager { compact = true } );
         ])
    [
      ("default priority", None);
      ("salt 1", Some (salted_priority 1));
      ("salt 6", Some (salted_priority 6));
    ]

(* ------------------------------------------------------------------ *)
(* the theorems, live *)

let test_thm37_live_on_three_nodes () =
  List.iter
    (fun d ->
       let sc, priority = Adversary.Thm37.make ~d ~intervals:6 in
       let metrics = Obs.Metrics.create () in
       let captured = ref None in
       let o =
         Engine.run sc.Adversary.Scenario.instance
           (Session.factory ~metrics ~priority
              ~on_create:(fun s -> captured := Some s)
              ~strategy:Session.Local_fix ~nodes:3 ())
       in
       let opt = Offline.Opt.value sc.Adversary.Scenario.instance in
       check Alcotest.int (Printf.sprintf "live alg d=%d" d) (6 * 2 * d)
         o.Outcome.served;
       check Alcotest.int (Printf.sprintf "opt d=%d" d) (6 * 4 * d) opt;
       let s =
         match !captured with
         | Some s -> Session.stats s
         | None -> Alcotest.fail "factory never ran"
       in
       check Alcotest.int "exactly 2 comm rounds per scheduling round" 2
         s.Session.comm_rounds_max;
       check Alcotest.int "metrics mirror the round budget" 2
         (Obs.Metrics.counter metrics "cluster.comm_rounds_max");
       check Alcotest.int "metrics mirror the serves" (6 * 2 * d)
         (Obs.Metrics.counter metrics "cluster.served");
       check Alcotest.bool "messages bounced under pressure" true
         (s.Session.bounced > 0);
       check Alcotest.int "no serve conflicts" 0 s.Session.serve_conflicts)
    [ 2; 4; 6 ]

let test_eager_budget_live () =
  List.iter
    (fun (compact, bound) ->
       let inst = random_instance ~n:6 ~d:4 ~rounds:60 ~load:1.4 ~seed:77 in
       let captured = ref None in
       let o =
         Engine.run inst
           (Session.factory
              ~on_create:(fun s -> captured := Some s)
              ~strategy:(Session.Local_eager { compact })
              ~nodes:3 ())
       in
       check Alcotest.bool "consistent" true (Outcome.is_consistent o);
       match !captured with
       | None -> Alcotest.fail "factory never ran"
       | Some s ->
         let st = Session.stats s in
         check Alcotest.bool
           (Printf.sprintf "at most %d comm rounds (compact=%b)" bound
              compact)
           true
           (st.Session.comm_rounds_max <= bound))
    [ (false, 9); (true, 8) ]

let test_proxy_global_baseline () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:50 ~load:1.5 ~seed:21 in
  let captured = ref None in
  let o =
    Engine.run inst
      (Session.factory
         ~on_create:(fun s -> captured := Some s)
         ~strategy:Session.Proxy_global ~nodes:3 ())
  in
  check Alcotest.bool "consistent" true (Outcome.is_consistent o);
  check Alcotest.bool "serves something" true (o.Outcome.served > 0);
  match !captured with
  | None -> Alcotest.fail "factory never ran"
  | Some s ->
    let st = Session.stats s in
    check Alcotest.bool "uses at most 2 comm rounds per round" true
      (st.Session.comm_rounds_max <= 2);
    check Alcotest.int "no serve conflicts" 0 st.Session.serve_conflicts

(* ------------------------------------------------------------------ *)
(* failure and rejoin *)

(* Drive a session directly under streaming load, crash one node
   mid-run, rejoin it later, and account for every admitted request:
   exactly one terminal outcome each, every serve inside the request's
   original window.  Messages reach the killed node before detection,
   so every strategy's Dead paths run (for eager: probes, cancels,
   rivals, rehomes and swaps). *)
let kill_and_rejoin strategy =
  let kind = Session.kind_name strategy in
  let n = 12 and d = 6 and nodes = 3 in
  let session = Session.create ~strategy ~nodes ~n ~d () in
  let rng = Rng.create ~seed:42 in
  let windows = Hashtbl.create 512 in (* id -> (arrival, last_round) *)
  let terminals = Hashtbl.create 512 in
  let record_terminal id what round =
    (match Hashtbl.find_opt terminals id with
     | Some prev ->
       Alcotest.failf "request %d got %s after %s" id what prev
     | None -> ());
    Hashtbl.replace terminals id (Printf.sprintf "%s@%d" what round)
  in
  let submit_wave round =
    for _ = 1 to 6 do
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      let deadline = 2 + Rng.int rng (d - 1) in
      match Session.submit session ~alternatives:[ a; b ] ~deadline with
      | Ok id -> Hashtbl.replace windows id (round, round + deadline - 1)
      | Error m -> Alcotest.failf "submit: %s" m
    done
  in
  let victim = 1 in
  for round = 0 to 59 do
    if round < 40 then submit_wave round;
    if round = 12 then Session.kill session victim;
    if round = 26 then Session.rejoin session victim;
    let out = Session.step session in
    List.iter
      (fun (id, res) ->
         record_terminal id "served" round;
         let arrival, last = Hashtbl.find windows id in
         if round < arrival || round > last then
           Alcotest.failf
             "%s: request %d served at %d outside its original window %d..%d"
             kind id round arrival last;
         if res < 0 || res >= n then Alcotest.failf "bad resource %d" res)
      out.Session.served;
    List.iter (fun id -> record_terminal id "expired" round) out.Session.expired
  done;
  let check_int what = check Alcotest.int (kind ^ ": " ^ what) in
  let check_true what = check Alcotest.bool (kind ^ ": " ^ what) true in
  check_int "session drained" 0 (Session.pending session);
  Hashtbl.iter
    (fun id _ ->
       if not (Hashtbl.mem terminals id) then
         Alcotest.failf "%s: request %d has no terminal outcome" kind id)
    windows;
  check_int "no extra terminals" (Hashtbl.length windows)
    (Hashtbl.length terminals);
  let s = Session.stats session in
  check_int "one failover" 1 s.Session.failovers;
  check_true "messages reached the dead node" (s.Session.dropped_dead > 0);
  check_int "no serve conflicts" 0 s.Session.serve_conflicts;
  (* fix and proxy hold future slots on the victim when it dies and
     when it returns; eager's phase 2 pulls future slots into the
     current round, and under this load none are left to lose *)
  (match strategy with
   | Session.Local_fix | Session.Proxy_global ->
     check_true "failover readmitted survivors" (s.Session.readmitted > 0);
     check_true "rejoin handed future slots over"
       (s.Session.handoff_slots > 0)
   | Session.Local_eager _ -> ());
  check_true "rejoined node is alive" (Session.node_alive session victim);
  check_true "some requests straddled nodes" (s.Session.straddled > 0);
  check_int "terminal conservation" s.Session.requests
    (s.Session.served + s.Session.expired)

let test_kill_and_rejoin_loses_no_terminal () =
  List.iter kill_and_rejoin
    [
      Session.Local_fix;
      Session.Local_eager { compact = false };
      Session.Local_eager { compact = true };
      Session.Proxy_global;
    ]

(* The registry mirrors the session's own counters exactly, though it
   is only updated once per step: a seeded 3-node run through a kill
   and a rejoin, for every strategy. *)
let test_metrics_mirror_stats () =
  List.iter
    (fun strategy ->
       let kind = Session.kind_name strategy in
       let metrics = Obs.Metrics.create () in
       let session = Session.create ~metrics ~strategy ~nodes:3 ~n:12 ~d:6 () in
       let rng = Rng.create ~seed:5 in
       for round = 0 to 49 do
         if round < 40 then
           for _ = 1 to 6 do
             let a = Rng.int rng 12 in
             let b = (a + 1 + Rng.int rng 11) mod 12 in
             match
               Session.submit session ~alternatives:[ a; b ]
                 ~deadline:(2 + Rng.int rng 5)
             with
             | Ok _ -> ()
             | Error m -> Alcotest.failf "submit: %s" m
           done;
         if round = 12 then Session.kill session 1;
         if round = 26 then Session.rejoin session 1;
         ignore (Session.step session)
       done;
       let s = Session.stats session in
       let fields =
         [
           ("cluster.comm_rounds", s.Session.comm_rounds_total);
           ("cluster.comm_rounds_max", s.Session.comm_rounds_max);
           ("cluster.msgs", s.Session.messages);
           ("cluster.bounced", s.Session.bounced);
           ("cluster.dropped_dead", s.Session.dropped_dead);
           ("cluster.replies", s.Session.replies);
           ("cluster.ctrl_msgs", s.Session.ctrl_msgs);
           ("cluster.requests", s.Session.requests);
           ("cluster.straddle", s.Session.straddled);
           ("cluster.served", s.Session.served);
           ("cluster.expired", s.Session.expired);
           ("cluster.readmitted", s.Session.readmitted);
           ("cluster.failovers", s.Session.failovers);
           ("cluster.handoffs", s.Session.handoffs);
           ("cluster.handoff_slots", s.Session.handoff_slots);
           ("cluster.serve_conflicts", s.Session.serve_conflicts);
         ]
       in
       List.iter
         (fun (name, v) ->
            check Alcotest.int (kind ^ ": " ^ name) v
              (Obs.Metrics.counter metrics name))
         fields;
       List.iter
         (fun (name, v) ->
            match v with
            | Obs.Metrics.Counter _
              when String.starts_with ~prefix:"cluster." name
                   && not (List.mem_assoc name fields) ->
              Alcotest.failf "%s: counter %s has no stats field" kind name
            | _ -> ())
         (Obs.Metrics.snapshot metrics);
       check Alcotest.bool (kind ^ ": failover ran") true
         (s.Session.failovers = 1 && s.Session.dropped_dead > 0))
    [
      Session.Local_fix;
      Session.Local_eager { compact = false };
      Session.Proxy_global;
    ]

let test_layout_invariance_standalone () =
  (* the same submission schedule gives identical outcome sequences on
     every cluster shape: placement cannot change decisions *)
  let run nodes =
    let session =
      Session.create ~strategy:(Session.Local_eager { compact = false })
        ~nodes ~n:8 ~d:4 ()
    in
    let rng = Rng.create ~seed:9 in
    let log = Buffer.create 256 in
    for round = 0 to 29 do
      if round < 20 then
        for _ = 1 to 4 do
          let a = Rng.int rng 8 in
          let b = (a + 1 + Rng.int rng 7) mod 8 in
          match
            Session.submit session ~alternatives:[ a; b ]
              ~deadline:(1 + Rng.int rng 4)
          with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "submit: %s" m
        done;
      let out = Session.step session in
      Buffer.add_string log
        (Printf.sprintf "t%d:%s/%s\n" out.Session.round
           (String.concat ","
              (List.map
                 (fun (id, res) -> Printf.sprintf "%d@%d" id res)
                 out.Session.served))
           (String.concat "," (List.map string_of_int out.Session.expired)))
    done;
    Buffer.contents log
  in
  let reference = run 1 in
  List.iter
    (fun nodes ->
       check Alcotest.string
         (Printf.sprintf "nodes=%d outcome log" nodes)
         reference (run nodes))
    [ 2; 3; 5 ]

(* A rejoin handoff exports a resource's slots from the current round
   on, ascending, and leaves them empty on the donor. *)
let test_node_export () =
  let node = Cluster.Node.create ~id:0 ~n:3 ~d:4 in
  List.iter
    (fun (res, round) ->
       Cluster.Node.set_slot node ~res ~round
         (Request.of_array ~id:((10 * res) + round) ~alternatives:[| res |]
            ~arrival:3 ~deadline:4))
    [ (1, 6); (1, 3); (1, 5); (0, 4); (2, 6) ];
  let export res =
    List.map (fun (round, (r : Request.t)) -> (round, r.Request.id))
      (Cluster.Node.export node ~res ~from_round:3)
  in
  let slots = Alcotest.(list (pair int int)) in
  check slots "ascending, with occupants" [ (3, 13); (5, 15); (6, 16) ]
    (export 1);
  check slots "emptied" [] (export 1);
  check slots "other resources kept" [ (4, 4) ] (export 0);
  check slots "other resources kept" [ (6, 26) ] (export 2)

let test_session_submit_validation () =
  let s = Session.create ~strategy:Session.Local_fix ~nodes:2 ~n:4 ~d:3 () in
  (match Session.submit s ~alternatives:[ 0; 1 ] ~deadline:3 with
   | Ok 0 -> ()
   | Ok id -> Alcotest.failf "first id should be 0, got %d" id
   | Error m -> Alcotest.failf "valid submit rejected: %s" m);
  List.iter
    (fun (alts, deadline, what) ->
       match Session.submit s ~alternatives:alts ~deadline with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ([ 0; 1 ], 0, "zero deadline");
      ([ 0; 1 ], 4, "deadline beyond d");
      ([ 0; 4 ], 2, "resource out of range");
      ([], 2, "no alternatives");
      ([ 1; 1 ], 2, "duplicate alternatives");
    ]

(* ------------------------------------------------------------------ *)
(* serve-mode integration: the cluster as a server strategy *)

let fresh_sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "reqsched_cluster_%d_%d.sock" (Unix.getpid ()) !counter)

let with_cluster_server ~nodes ~n ~d f =
  let path = fresh_sock_path () in
  let cfg =
    {
      Server.addr = Server.Unix_sock path;
      n_resources = n;
      d;
      shards = 1;
      domains = 0;
      (* the cluster session owns the whole resource space; the server
         runs it on one shard and the router tier fans out internally *)
      strategy =
        (fun ~shard:_ ~metrics ->
          Session.factory ~metrics ~strategy:Session.Local_fix ~nodes ());
      tick = `Manual;
      queue_capacity = 1024;
      max_batch = 512;
      outbox_capacity = 4096;
      read_timeout = 10.0;
      name = "test-cluster";
    }
  in
  match Server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    let result =
      try f (Server.Unix_sock path)
      with e ->
        Server.drain srv;
        ignore (Server.wait srv);
        raise e
    in
    Server.drain srv;
    let snap = Server.wait srv in
    (try Sys.remove path with Sys_error _ -> ());
    (result, snap)

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter v) -> v
  | Some _ | None -> 0

let test_serve_mode_cluster () =
  let inst = random_instance ~n:8 ~d:4 ~rounds:25 ~load:1.4 ~seed:13 in
  let run nodes =
    let r, snap =
      with_cluster_server ~nodes ~n:8 ~d:4 (fun addr ->
          match Client.open_loop ~addr ~inst ~tick:`Manual () with
          | Error m -> Alcotest.failf "open_loop: %s" m
          | Ok r -> r)
    in
    (Client.render_decisions r, r, snap)
  in
  let decisions2, r, snap = run 2 in
  check Alcotest.int "every submission got exactly one terminal"
    r.Client.submitted
    (r.Client.scheduled + r.Client.rejected + r.Client.expired);
  check Alcotest.bool "something scheduled" true (r.Client.scheduled > 0);
  check Alcotest.int "cluster serves reached the merged snapshot"
    r.Client.scheduled
    (counter snap "cluster.served");
  check Alcotest.bool "cluster rounds metered" true
    (counter snap "cluster.comm_rounds" > 0);
  let decisions3, _, _ = run 3 in
  check Alcotest.string "decisions byte-identical across node layouts"
    decisions2 decisions3

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "owner total" `Quick test_ring_owner_total;
          Alcotest.test_case "spread" `Quick test_ring_spread;
          test_ring_remove_moves_only_victims;
          test_ring_rejoin_restores_placement;
          Alcotest.test_case "moved exact" `Quick test_ring_moved_is_exact;
          test_ring_table_is_the_scan;
          Alcotest.test_case "session owner follows membership" `Quick
            test_session_owner_follows_membership;
        ] );
      ( "wire",
        [
          test_wire_roundtrip;
          test_wire_render_matches_model;
          test_wire_parse_matches_model;
          Alcotest.test_case "rejects" `Quick test_wire_rejects;
          Alcotest.test_case "parse_prefix length bounds" `Quick
            test_wire_parse_prefix_bounds;
          test_wire_equal_is_structural;
          Alcotest.test_case "oversize handoff" `Quick
            test_wire_oversize_via_render;
          Alcotest.test_case "edit sweep agrees with the model" `Quick
            test_wire_edit_sweep;
        ] );
      ( "transport",
        [
          test_net_transport_parity;
          Alcotest.test_case "dead node bounces" `Quick
            test_transport_dead_node_bounces;
          Alcotest.test_case "allocation per message" `Quick
            test_transport_words;
          Alcotest.test_case "the gate refuses bounced, tagged, dead lines"
            `Quick test_transport_gate_covers_every_line;
        ] );
      ( "parity",
        [
          Alcotest.test_case "matches Localstrat on every layout" `Slow
            test_cluster_matches_local;
          Alcotest.test_case "layout-invariant outcomes" `Quick
            test_layout_invariance_standalone;
        ] );
      ( "theorems",
        [
          Alcotest.test_case "thm 3.7 live on 3 nodes" `Quick
            test_thm37_live_on_three_nodes;
          Alcotest.test_case "eager budgets live" `Quick
            test_eager_budget_live;
          Alcotest.test_case "proxy-global baseline" `Quick
            test_proxy_global_baseline;
        ] );
      ( "failure",
        [
          Alcotest.test_case "kill and rejoin, no lost terminals" `Quick
            test_kill_and_rejoin_loses_no_terminal;
          Alcotest.test_case "submit validation" `Quick
            test_session_submit_validation;
          Alcotest.test_case "node export" `Quick test_node_export;
          Alcotest.test_case "metrics mirror the stats" `Quick
            test_metrics_mirror_stats;
        ] );
      ( "serve",
        [
          Alcotest.test_case "cluster behind the server" `Quick
            test_serve_mode_cluster;
        ] );
    ]
