module Stats = Prelude.Stats
module Texttable = Prelude.Texttable

type format = Text | Json

let format_of_string = function
  | "text" -> Ok Text
  | "json" -> Ok Json
  | other ->
    Error
      (Printf.sprintf "unknown metrics format %S (expected text or json)"
         other)

let format_name = function Text -> "text" | Json -> "json"

(* %.17g round-trips every finite float through [float_of_string];
   non-finite values print as nan/inf/-inf, which [float_of_string]
   also reads back. *)
let fstr x = Printf.sprintf "%.17g" x

(* ------------------------------------------------------------------ *)
(* text table *)

let cell x = if Float.is_nan x then "-" else Printf.sprintf "%.6g" x

let table snap =
  let t =
    Texttable.create ~title:"metrics"
      ~header:[ "name"; "kind"; "value"; "count"; "mean"; "min"; "max" ]
      ()
  in
  Texttable.set_align t
    Texttable.[ Left; Left; Right; Right; Right; Right; Right ];
  List.iter
    (fun (name, v) ->
       match (v : Metrics.value) with
       | Counter c ->
         Texttable.add_row t [ name; "counter"; string_of_int c ]
       | Gauge g -> Texttable.add_row t [ name; "gauge"; cell g ]
       | Histogram s ->
         Texttable.add_row t
           [
             name; "histogram"; ""; string_of_int (Stats.count s);
             cell (Stats.mean s); cell (Stats.min s); cell (Stats.max s);
           ])
    snap;
  t

let parse_error fmt = Printf.ksprintf (fun s -> failwith ("Obs.Export: " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* line-oriented JSON: one object per metric per line *)

let json_num x =
  if Float.is_finite x then fstr x else Printf.sprintf "%S" (fstr x)

let to_json snap =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
       (match (v : Metrics.value) with
        | Counter c ->
          Printf.bprintf buf {|{"name":%S,"kind":"counter","value":%d}|} name c
        | Gauge g ->
          Printf.bprintf buf {|{"name":%S,"kind":"gauge","value":%s}|} name
            (json_num g)
        | Histogram s ->
          let n = Stats.count s in
          if n = 0 then
            Printf.bprintf buf {|{"name":%S,"kind":"histogram","count":0}|}
              name
          else
            Printf.bprintf buf
              {|{"name":%S,"kind":"histogram","count":%d,"mean":%s,"m2":%s,"min":%s,"max":%s}|}
              name n (json_num (Stats.mean s)) (json_num (Stats.m2 s))
              (json_num (Stats.min s)) (json_num (Stats.max s)));
       Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf

(* A scanner for exactly the object shape emitted above: flat, string or
   numeric values, no nesting, no spaces required. *)
let parse_json_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let expect c =
    if peek () <> Some c then parse_error "expected %C in %S" c line;
    Stdlib.incr pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> parse_error "unterminated string in %S" line
      | Some '"' -> Stdlib.incr pos
      | Some '\\' ->
        Stdlib.incr pos;
        (match peek () with
         | Some 'n' -> Buffer.add_char buf '\n'
         | Some 't' -> Buffer.add_char buf '\t'
         | Some c -> Buffer.add_char buf c
         | None -> parse_error "truncated escape in %S" line);
        Stdlib.incr pos;
        go ()
      | Some c ->
        Buffer.add_char buf c;
        Stdlib.incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_value () =
    match peek () with
    | Some '"' -> parse_string ()
    | _ ->
      let start = !pos in
      while
        match peek () with
        | Some (',' | '}') | None -> false
        | Some _ -> true
      do
        Stdlib.incr pos
      done;
      String.sub line start (!pos - start)
  in
  expect '{';
  let fields = ref [] in
  let rec go () =
    let key = parse_string () in
    expect ':';
    let v = parse_value () in
    fields := (key, v) :: !fields;
    match peek () with
    | Some ',' ->
      Stdlib.incr pos;
      go ()
    | Some '}' -> Stdlib.incr pos
    | _ -> parse_error "expected ',' or '}' in %S" line
  in
  go ();
  !fields

let of_json text =
  let field fields key =
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> parse_error "missing field %S" key
  in
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
      let fields = parse_json_line line in
      let name = field fields "name" in
      match field fields "kind" with
      | "counter" -> (name, Metrics.Counter (int_of_string (field fields "value")))
      | "gauge" -> (name, Metrics.Gauge (float_of_string (field fields "value")))
      | "histogram" ->
        let count = int_of_string (field fields "count") in
        if count = 0 then (name, Metrics.Histogram (Stats.create ()))
        else
          let f key = float_of_string (field fields key) in
          ( name,
            Metrics.Histogram
              (Stats.of_moments ~count ~mean:(f "mean") ~m2:(f "m2")
                 ~mn:(f "min") ~mx:(f "max")) )
      | k -> parse_error "unknown kind %S" k)

(* ------------------------------------------------------------------ *)

let render fmt snap =
  match fmt with
  | Text -> Texttable.render (table snap)
  | Json -> to_json snap

let output ?path fmt snap =
  let content = render fmt snap in
  match path with
  | None -> print_string content
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content)
