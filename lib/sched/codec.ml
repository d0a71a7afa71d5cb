(* Text codec for instances and request fields.

   The grammar is shared with the lib/serve wire protocol: a request's
   alternative list is rendered as comma-separated resource ids, and a
   request line is three space-separated fields.  Keeping the grammar
   here (under sched, not serve) lets traces be saved, loaded and
   replayed without linking the network layer. *)

let version = "rsp/1"

(* ------------------------------------------------------------------ *)
(* rendering: integers are written digit by digit into the caller's
   buffer, so a line costs its bytes and nothing else *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let rec add_alts b = function
  | [] -> ()
  | a :: rest ->
    add_int b a;
    if rest <> [] then Buffer.add_char b ',';
    add_alts b rest

(* [first] is the arrival round in a trace file and the client's tag on
   the wire — same shape, different meaning. *)
let add_req_fields b ~first ~alternatives ~deadline =
  add_int b first;
  Buffer.add_char b ' ';
  add_alts b alternatives;
  Buffer.add_char b ' ';
  add_int b deadline

let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

let render_with add x =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  add b x;
  Buffer.contents b


(* ------------------------------------------------------------------ *)
(* scanning: one pass of indices over [s.[pos .. stop-1]], with no
   substring, split or intermediate list; only the error path builds a
   string *)

exception Syntax of string

let syntax fmt = Printf.ksprintf (fun m -> raise (Syntax m)) fmt

(* the index of the first [c] in [pos .. stop-1], else [stop] *)
let rec field_end s c pos stop =
  if pos >= stop || String.unsafe_get s pos = c then pos
  else field_end s c (pos + 1) stop

(* Decimal digits with an optional '-', accumulated negatively so that
   [min_int] parses and anything beyond the int range is caught. *)
let rec digits s i stop acc =
  if i = stop then acc
  else
    let c = String.unsafe_get s i in
    if c < '0' || c > '9' then raise_notrace Exit;
    let dg = Char.code c - 48 in
    if acc < min_int / 10 || (acc = min_int / 10 && dg > -(min_int mod 10))
    then raise_notrace Exit;
    digits s (i + 1) stop ((acc * 10) - dg)

let scan_int ~what s ~pos ~stop =
  match
    let neg = pos < stop && String.unsafe_get s pos = '-' in
    let first = if neg then pos + 1 else pos in
    if first >= stop then raise_notrace Exit;
    let v = digits s first stop 0 in
    if neg then v else if v = min_int then raise_notrace Exit else -v
  with
  | v -> v
  | exception Exit ->
    syntax "malformed %s %S" what (String.sub s pos (stop - pos))

(* The list is built in order, by plain recursion, with no reversal.
   Errors keep the left-to-right rule — the first field that is
   malformed, negative or a repeat names the error — so a field that
   fails to scan ([Bad_field], with its start) loses to a repeat before
   it, which only the error path looks for. *)
exception Bad_field of int * string

let rec alts_in_order s pos stop =
  let j = field_end s ',' pos stop in
  let v =
    match scan_int ~what:"resource" s ~pos ~stop:j with
    | v when v < 0 ->
      raise (Bad_field (pos, Printf.sprintf "negative resource %d" v))
    | v -> v
    | exception Syntax m -> raise (Bad_field (pos, m))
  in
  v :: (if j >= stop then [] else alts_in_order s (j + 1) stop)

(* is [v] among the first [n] elements of [l]? *)
let rec mem_first l v n =
  n > 0 && match l with [] -> false | x :: r -> x = v || mem_first r v (n - 1)

let rec check_repeats all l i =
  match l with
  | [] -> ()
  | v :: rest ->
    if mem_first all v i then syntax "duplicate resource %d" v;
    check_repeats all rest (i + 1)

let scan_alts s ~pos ~stop =
  if pos >= stop then raise (Syntax "empty alternative list");
  match alts_in_order s pos stop with
  | alts ->
    check_repeats alts alts 0;
    alts
  | exception Bad_field (at, m) ->
    if at > pos then begin
      let before = alts_in_order s pos (at - 1) in
      check_repeats before before 0
    end;
    raise (Syntax m)

let split3 s ~pos ~stop =
  let i1 = field_end s ' ' pos stop in
  let i2 = if i1 < stop then field_end s ' ' (i1 + 1) stop else stop in
  if i2 >= stop || field_end s ' ' (i2 + 1) stop < stop then -1 else i2

let scan_req_fields ~what s ~pos ~stop k =
  let i2 = split3 s ~pos ~stop in
  if i2 < 0 then
    syntax "expected '<%s> <alts> <deadline>': %S" what
      (String.sub s pos (stop - pos));
  let i1 = field_end s ' ' pos i2 in
  let first = scan_int ~what s ~pos ~stop:i1 in
  let alternatives = scan_alts s ~pos:(i1 + 1) ~stop:i2 in
  let deadline = scan_int ~what:"deadline" s ~pos:(i2 + 1) ~stop in
  if deadline < 1 then syntax "deadline %d must be >= 1" deadline;
  k first alternatives deadline

let to_string (inst : Instance.t) =
  let b = Buffer.create (64 + (32 * Instance.n_requests inst)) in
  Buffer.add_string b
    (Printf.sprintf "instance %s n=%d d=%d requests=%d\n" version
       inst.Instance.n_resources inst.Instance.d
       (Instance.n_requests inst));
  Array.iter
    (fun (r : Request.t) ->
       Buffer.add_string b "req ";
       add_req_fields b ~first:r.Request.arrival
         ~alternatives:(Array.to_list r.Request.alternatives)
         ~deadline:r.Request.deadline;
       Buffer.add_char b '\n')
    inst.Instance.requests;
  Buffer.add_string b "end\n";
  Buffer.contents b

let parse_header line =
  match String.split_on_char ' ' line with
  | [ "instance"; v; nf; df; cf ] when v = version ->
    let field name s =
      let prefix = name ^ "=" in
      let pl = String.length prefix in
      if String.length s > pl && String.sub s 0 pl = prefix then
        int_of_string_opt (String.sub s pl (String.length s - pl))
      else None
    in
    (match field "n" nf, field "d" df, field "requests" cf with
     | Some n, Some d, Some count -> Ok (n, d, count)
     | _ -> Error (Printf.sprintf "malformed instance header %S" line))
  | "instance" :: v :: _ when v <> version ->
    Error (Printf.sprintf "unsupported trace version %S (want %s)" v version)
  | _ -> Error (Printf.sprintf "malformed instance header %S" line)

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "empty trace"
  | header :: rest ->
    (match parse_header header with
     | Error _ as e -> e
     | Ok (n, d, count) ->
       let rec go acc = function
         | [ "end" ] ->
           let protos = List.rev acc in
           if List.length protos <> count then
             Error
               (Printf.sprintf "header claims %d requests, trace has %d"
                  count (List.length protos))
           else
             (match Instance.build ~n_resources:n ~d protos with
              | inst -> Ok inst
              | exception Invalid_argument m -> Error m)
         | [] -> Error "truncated trace (missing 'end')"
         | line :: rest when String.starts_with ~prefix:"req " line ->
           (match
              scan_req_fields ~what:"arrival" line ~pos:4
                ~stop:(String.length line)
                (fun arrival alternatives deadline ->
                   Request.make ~arrival ~alternatives ~deadline)
            with
            | proto -> go (proto :: acc) rest
            | exception (Syntax m | Invalid_argument m) -> Error m)
         | line :: _ -> Error (Printf.sprintf "malformed trace line %S" line)
       in
       go [] rest)

let save ~path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

let load ~path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
         let len = in_channel_length ic in
         of_string (really_input_string ic len))
