(* Terminal outcomes per tag, and the correctness checks every run
   applies to them.

   A check returns its error count; the run collects them with {!note}
   and fails when any is non-zero. *)

module Ivec = Prelude.Ivec

let none = 0
let sched = 1
let expired = 2
let rejected = 3

type t = {
  kind : Ivec.t;
  round : Ivec.t;
  res : Ivec.t;
  seen : Ivec.t; (* terminals received per tag *)
  mutable terminals : int; (* tags with at least one terminal *)
  mutable stray : int; (* terminals for tags never submitted *)
}

let create () =
  let v () = Ivec.create ~capacity:65536 () in
  {
    kind = v ();
    round = v ();
    res = v ();
    seen = v ();
    terminals = 0;
    stray = 0;
  }

let length t = Ivec.length t.kind

(* Make room for tags [0 .. n-1]. *)
let ensure t n =
  while Ivec.length t.kind < n do
    Ivec.push t.kind none;
    Ivec.push t.round 0;
    Ivec.push t.res 0;
    Ivec.push t.seen 0
  done

(* [true] when this is the tag's first terminal. *)
let record t ~tag ~kind ~round ~res =
  if tag < 0 || tag >= length t then begin
    t.stray <- t.stray + 1;
    false
  end
  else begin
    let c = Ivec.get t.seen tag in
    Ivec.set t.seen tag (c + 1);
    if c = 0 then begin
      t.terminals <- t.terminals + 1;
      Ivec.set t.kind tag kind;
      Ivec.set t.round tag round;
      Ivec.set t.res tag res
    end;
    c = 0
  end

(* Decisions of an offline engine run over the realised stream. *)
let of_outcome (o : Sched.Outcome.t) =
  let t = create () in
  ensure t (Array.length o.served_at);
  Array.iteri
    (fun tag -> function
       | Some (res, round) -> ignore (record t ~tag ~kind:sched ~round ~res)
       | None -> ignore (record t ~tag ~kind:expired ~round:0 ~res:0))
    o.served_at;
  t

let kind t tag = Ivec.get t.kind tag
let count_kind t k = Ivec.fold (fun acc x -> if x = k then acc + 1 else acc) 0 t.kind

(* One line per tag, in tag order; the byte-comparable decision log
   (same shape as [Serve.Client.render_decisions]). *)
let render t =
  let b = Buffer.create (24 * length t) in
  for tag = 0 to length t - 1 do
    let k = Ivec.get t.kind tag in
    if k = sched then
      Printf.bprintf b "t%d sched@%d S%d\n" tag (Ivec.get t.round tag)
        (Ivec.get t.res tag)
    else if k = expired then Printf.bprintf b "t%d exp\n" tag
    else if k = rejected then Printf.bprintf b "t%d rej\n" tag
    else Printf.bprintf b "t%d none\n" tag
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* checks *)

type verdict = { label : string; errors : int; detail : string }

let checks : verdict list ref = ref []

let note label ?(detail = "") errors =
  checks := { label; errors; detail } :: !checks

(* (a) every submitted tag has exactly one terminal, and no terminal
   names a tag that was never submitted. *)
let one_terminal t =
  let n = ref t.stray and first = ref "" in
  if t.stray > 0 then
    first := Printf.sprintf "%d terminals for unknown tags" t.stray;
  for tag = 0 to length t - 1 do
    let c = Ivec.get t.seen tag in
    if c <> 1 then begin
      incr n;
      if !first = "" then
        first := Printf.sprintf "tag %d has %d terminals" tag c
    end
  done;
  (!n, !first)

(* (b) every Scheduled is valid against the request it answers: the
   resource is one of its alternatives, the round lies in its window,
   and no (round, resource) slot is used twice. *)
let valid t ~alternatives ~arrival ~deadline =
  let used = Hashtbl.create 4096 in
  let n = ref 0 and first = ref "" in
  let fail msg =
    incr n;
    if !first = "" then first := msg
  in
  for tag = 0 to length t - 1 do
    if Ivec.get t.kind tag = sched then begin
      let r = Ivec.get t.round tag and s = Ivec.get t.res tag in
      let a = arrival tag in
      if not (List.mem s (alternatives tag)) then
        fail (Printf.sprintf "tag %d served on S%d, not an alternative" tag s)
      else if r < a || r > a + deadline tag - 1 then
        fail
          (Printf.sprintf "tag %d served at round %d outside [%d, %d]" tag r a
             (a + deadline tag - 1))
      else if Hashtbl.mem used (r, s) then
        fail (Printf.sprintf "slot (round %d, S%d) used twice" r s)
      else Hashtbl.add used (r, s) tag
    end
  done;
  (!n, !first)

(* Count the lines on which two decision logs differ. *)
let diff_logs a b =
  if String.equal a b then (0, "")
  else
    let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
    let rec go n first = function
      | x :: xs, y :: ys ->
        if String.equal x y then go n first (xs, ys)
        else
          go (n + 1)
            (if first = "" then Printf.sprintf "%S vs %S" x y else first)
            (xs, ys)
      | [], [] -> (n, first)
      | rest, [] | [], rest ->
        (n + List.length rest, if first = "" then "logs differ in length" else first)
    in
    go 0 "" (la, lb)

let check_stream t stream =
  let n, d = one_terminal t in
  note "(a) one terminal per tag" ~detail:d n;
  let n, d =
    valid t ~alternatives:(Stream.alternatives stream)
      ~arrival:(Stream.arrival stream) ~deadline:(Stream.deadline stream)
  in
  note "(b) every Scheduled valid against the instance" ~detail:d n
