module Stats = Prelude.Stats

(* A registry binds each name to one slot for its whole life.  A handle
   is the slot itself, so an update through it never looks the name up.
   [used] says whether the slot has been recorded into since it was
   bound or last cleared: a snapshot lists only used slots, so binding
   a handle leaves no trace in the dumps until the first update. *)
type counter = { value : int Atomic.t; mutable c_used : bool }

(* an all-float record: storing into it boxes nothing *)
type cell = { mutable x : float }

type gauge = { g_lock : Mutex.t; cell : cell; mutable g_used : bool }
type histogram = { h_lock : Mutex.t; stats : Stats.t; mutable h_used : bool }

type metric = C of counter | G of gauge | H of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  lock : Mutex.t;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of Stats.t

type snapshot = (string * value) list

let create () = { tbl = Hashtbl.create 64; lock = Mutex.create () }

(* Not [Fun.protect], which would add two closures of its own per call. *)
let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.unlock t.lock;
    Printexc.raise_with_backtrace e bt

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"

let wrong_kind name metric want =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S is a %s, not a %s" name
       (kind_name metric) want)

let find t name = Hashtbl.find_opt t.tbl name

(* ------------------------------------------------------------------ *)
(* handles *)

(* [bind_*]: the slot of [name], bound if absent; under the lock *)
let bind_counter t name =
  match find t name with
  | Some (C c) -> c
  | Some m -> wrong_kind name m "counter"
  | None ->
    let c = { value = Atomic.make 0; c_used = false } in
    Hashtbl.replace t.tbl name (C c);
    c

let bind_gauge t name =
  match find t name with
  | Some (G g) -> g
  | Some m -> wrong_kind name m "gauge"
  | None ->
    let g = { g_lock = t.lock; cell = { x = nan }; g_used = false } in
    Hashtbl.replace t.tbl name (G g);
    g

let bind_histogram t name =
  match find t name with
  | Some (H h) -> h
  | Some m -> wrong_kind name m "histogram"
  | None ->
    let h = { h_lock = t.lock; stats = Stats.create (); h_used = false } in
    Hashtbl.replace t.tbl name (H h);
    h

let register_counter t name = locked t (fun () -> bind_counter t name)
let register_gauge t name = locked t (fun () -> bind_gauge t name)
let register_histogram t name = locked t (fun () -> bind_histogram t name)

(* The flag is written only on a slot's first update, so domains adding
   to one counter share its cache line only through the atomic. *)
let add c by =
  ignore (Atomic.fetch_and_add c.value by : int);
  if not c.c_used then c.c_used <- true

(* Gauges and histograms are updated under the registry lock: a reader
   must not see Welford's fields half-updated.  The [*_locked] forms
   expect the caller to hold it; neither can raise, so the lock needs
   no exception handler.  Inlined, so the float argument is not boxed
   at the call. *)
let[@inline] put_locked g v =
  g.cell.x <- v;
  g.g_used <- true

let[@inline] record_locked h x =
  Stats.add h.stats x;
  h.h_used <- true

let[@inline] put g v =
  Mutex.lock g.g_lock;
  put_locked g v;
  Mutex.unlock g.g_lock

let[@inline] record h x =
  Mutex.lock h.h_lock;
  record_locked h x;
  Mutex.unlock h.h_lock

(* ------------------------------------------------------------------ *)
(* by name: the lookup, then the handle operation (for gauges and
   histograms both under one lock acquisition) *)

let incr ?(by = 1) t name = add (register_counter t name) by

let set_counter t name v =
  let c = register_counter t name in
  Atomic.set c.value v;
  c.c_used <- true

let counter t name =
  locked t (fun () ->
      match find t name with
      | None -> 0
      | Some (C c) -> Atomic.get c.value
      | Some m -> wrong_kind name m "counter")

let set t name v = locked t (fun () -> put_locked (bind_gauge t name) v)

let gauge t name =
  locked t (fun () ->
      match find t name with
      | None -> nan
      | Some (G g) -> if g.g_used then g.cell.x else nan
      | Some m -> wrong_kind name m "gauge")

let observe t name x =
  locked t (fun () -> record_locked (bind_histogram t name) x)

let histogram t name =
  locked t (fun () ->
      match find t name with
      | None -> None
      | Some (H h) -> if h.h_used then Some (Stats.copy h.stats) else None
      | Some m -> wrong_kind name m "histogram")

let clear t =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ -> function
           | C c ->
             Atomic.set c.value 0;
             c.c_used <- false
           | G g ->
             g.cell.x <- nan;
             g.g_used <- false
           | H h ->
             Stats.reset h.stats;
             h.h_used <- false)
        t.tbl)

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name m acc ->
           match m with
           | C c when c.c_used -> (name, Counter (Atomic.get c.value)) :: acc
           | G g when g.g_used -> (name, Gauge g.cell.x) :: acc
           | H h when h.h_used -> (name, Histogram (Stats.copy h.stats)) :: acc
           | C _ | G _ | H _ -> acc)
        t.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge_values name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Histogram x, Histogram y -> Histogram (Stats.merge x y)
  | _ ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics.merge: %S has mismatched kinds" name)

(* both snapshots are sorted by name, so a linear merge suffices *)
let merge a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (na, va) :: ta, (nb, vb) :: tb ->
      let c = compare na nb in
      if c < 0 then go ta b ((na, va) :: acc)
      else if c > 0 then go a tb ((nb, vb) :: acc)
      else go ta tb ((na, merge_values na va vb) :: acc)
  in
  go a b []

let merge_all = function
  | [] -> []
  | s :: rest -> List.fold_left merge s rest

let merge_into t snap =
  List.iter
    (fun (name, v) ->
       match v with
       | Counter c -> incr ~by:c t name
       | Gauge v ->
         locked t (fun () ->
             let g = bind_gauge t name in
             put_locked g (if g.g_used then g.cell.x +. v else v))
       | Histogram s ->
         locked t (fun () ->
             let h = bind_histogram t name in
             Stats.absorb h.stats s;
             h.h_used <- true))
    snap

(* ------------------------------------------------------------------ *)
(* ambient registry *)

(* The ambient registry lets the CLI and bench harness switch on
   recording across every instrumented subsystem without threading a
   [?metrics] argument through each experiment.  It is written once at
   startup (before any domain is spawned) and only read afterwards, so a
   plain ref is safe; the registry itself is mutex-protected. *)
let ambient_ref : t option ref = ref None
let set_ambient o = ambient_ref := o
let ambient () = !ambient_ref

let resolve = function Some m -> Some m | None -> !ambient_ref
