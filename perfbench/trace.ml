(* In-memory spans around calls into the program's public functions.

   A span records its name, start and end (monotonic ns), the span that
   encloses it, the round it belongs to, how many items (requests,
   replies, events) the call covered, and the minor-heap words
   allocated meanwhile.  A span's self time is its duration minus the
   time its child spans cover.  Spans stay in flat arrays until {!write}
   dumps them at the end of the run. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable round : int array;
  mutable items : int array;
  mutable child : int array; (* ns covered by child spans *)
  mutable words : int array;
  mutable open_ : int; (* innermost open span, -1 at top level *)
}

let create () =
  let cap = 4096 in
  let mk () = Array.make cap 0 in
  {
    names = Hashtbl.create 32;
    name_of = [||];
    len = 0;
    name = mk ();
    start = mk ();
    stop = mk ();
    parent = mk ();
    round = mk ();
    items = mk ();
    child = mk ();
    words = mk ();
    open_ = -1;
  }

let intern t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.round <- g t.round;
  t.items <- g t.items;
  t.child <- g t.child;
  t.words <- g t.words

(* Run [f] inside a span; [f] returns the number of items it covered. *)
let span t name ~round f =
  if t.len = Array.length t.name then grow t;
  let id = t.len in
  t.len <- id + 1;
  let parent = t.open_ in
  t.name.(id) <- intern t name;
  t.parent.(id) <- parent;
  t.round.(id) <- round;
  t.child.(id) <- 0;
  t.open_ <- id;
  let w0 = Gc.minor_words () in
  let s = Clock.now_ns () in
  let items = f () in
  let e = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  t.start.(id) <- s;
  t.stop.(id) <- e;
  t.items.(id) <- items;
  t.words.(id) <- int_of_float (w1 -. w0);
  t.open_ <- parent;
  if parent >= 0 then t.child.(parent) <- t.child.(parent) + (e - s)

(* Optional tracer: without one, the stage body just runs. *)
let stage tr name ~round f =
  match tr with None -> ignore (f ()) | Some t -> span t name ~round f

let self t i = t.stop.(i) - t.start.(i) - t.child.(i)

(* Totals of one span name over rounds [lo, hi): self ns, items and
   minor words. *)
let totals t name ~lo ~hi =
  match Hashtbl.find_opt t.names name with
  | None -> (0, 0, 0)
  | Some k ->
    let ns = ref 0 and items = ref 0 and words = ref 0 in
    for i = 0 to t.len - 1 do
      if t.name.(i) = k && t.round.(i) >= lo && t.round.(i) < hi then begin
        ns := !ns + self t i;
        items := !items + t.items.(i);
        words := !words + t.words.(i)
      end
    done;
    (!ns, !items, !words)

(* Self ns of the named spans summed per round, for rounds [lo, hi). *)
let per_round t names ~lo ~hi =
  let acc = Array.make (max 0 (hi - lo)) 0.0 in
  let ks = List.filter_map (Hashtbl.find_opt t.names) names in
  for i = 0 to t.len - 1 do
    let r = t.round.(i) in
    if r >= lo && r < hi && List.mem t.name.(i) ks then
      acc.(r - lo) <- acc.(r - lo) +. float_of_int (self t i)
  done;
  acc

(* Self ns per item of one span name over rounds [lo, hi). *)
let ns_per_item t name ~lo ~hi =
  let ns, items, _ = totals t name ~lo ~hi in
  if items = 0 then 0.0 else float_of_int ns /. float_of_int items

(* Median over rounds [lo, hi) of the named spans' self ns per round. *)
let median_per_round t names ~lo ~hi =
  let xs = per_round t names ~lo ~hi in
  if Array.length xs = 0 then 0.0 else Prelude.Stats.quantile xs 0.5

(* One row per span: id, name, start, end, parent, round, items, self
   ns, minor words. *)
let write t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        "id\tname\tstart_ns\tend_ns\tparent\tround\titems\tself_ns\tminor_words\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n" i
          t.name_of.(t.name.(i)) t.start.(i) t.stop.(i) t.parent.(i)
          t.round.(i) t.items.(i) (self t i) t.words.(i)
      done)
