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

(* Writing at a position: the writer is the bytes alone, the position
   travels through the calls, and each [put_*] checks room once for
   its whole field instead of once per character. *)

type writer = { mutable bytes : Bytes.t }

let writer_key = Domain.DLS.new_key (fun () -> { bytes = Bytes.create 256 })
let writer () = Domain.DLS.get writer_key

let grow w pos k =
  let bytes = Bytes.create (max (pos + k) (2 * Bytes.length w.bytes)) in
  Bytes.blit w.bytes 0 bytes 0 pos;
  w.bytes <- bytes

(* room for [k] more bytes at [pos] *)
let[@inline] reserve w pos k =
  if pos + k > Bytes.length w.bytes then grow w pos k

let[@inline] put_char w pos c =
  reserve w pos 1;
  Bytes.unsafe_set w.bytes pos c;
  pos + 1

let put_string w pos s =
  let k = String.length s in
  reserve w pos k;
  Bytes.unsafe_blit_string s 0 w.bytes pos k;
  pos + k

(* [add_digits] at a position: the digits of [n >= 0], most significant
   first, ending before the returned position *)
let rec put_digits b pos n =
  let pos = if n >= 10 then put_digits b pos (n / 10) else pos in
  Bytes.unsafe_set b pos (Char.unsafe_chr (48 + (n mod 10)));
  pos + 1

(* an int has at most 19 decimal digits *)
let put_int w pos n =
  if n < 0 then put_string w pos (string_of_int n)
  else begin
    reserve w pos 19;
    put_digits w.bytes pos n
  end

let put_alts w pos (alts : int array) =
  let pos = ref pos in
  for i = 0 to Array.length alts - 1 do
    if i > 0 then pos := put_char w !pos ',';
    pos := put_int w !pos alts.(i)
  done;
  !pos

let contents w len = Bytes.sub_string w.bytes 0 len

(* The bytes are only read before the next write on this domain, by a
   reader that keeps no reference to them. *)
let view w = Bytes.unsafe_to_string w.bytes

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

(* Up to 18 digits cannot overflow: the plain loop, -1 at anything
   else (a sign included), which the careful scan then handles. *)
let rec small s i stop acc =
  if i = stop then acc
  else
    let c = String.unsafe_get s i in
    if c < '0' || c > '9' then -1
    else small s (i + 1) stop ((acc * 10) + Char.code c - 48)

let careful_int ~what s ~pos ~stop =
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

let scan_int ~what s ~pos ~stop =
  let v = if stop > pos && stop - pos <= 18 then small s pos stop 0 else -1 in
  if v >= 0 then v else careful_int ~what s ~pos ~stop

let rec commas s i stop k =
  if i >= stop then k
  else commas s (i + 1) stop (if String.unsafe_get s i = ',' then k + 1 else k)

let rec seen (a : int array) v i = i > 0 && (a.(i - 1) = v || seen a v (i - 1))

(* Left to right, so the first field that is malformed, negative or a
   repeat of an earlier one names the error. *)
let rec fill_alts a s i pos stop =
  let j = field_end s ',' pos stop in
  let v = scan_int ~what:"resource" s ~pos ~stop:j in
  if v < 0 then syntax "negative resource %d" v;
  if seen a v i then syntax "duplicate resource %d" v;
  Array.unsafe_set a i v;
  if j < stop then fill_alts a s (i + 1) (j + 1) stop

let scan_alt_array s ~pos ~stop =
  if pos >= stop then raise (Syntax "empty alternative list");
  let a = Array.make (commas s pos stop 1) 0 in
  fill_alts a s 0 pos stop;
  a

let scan_alts s ~pos ~stop = Array.to_list (scan_alt_array s ~pos ~stop)

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
