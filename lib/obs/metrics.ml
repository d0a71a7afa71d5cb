module Stats = Prelude.Stats

type metric =
  | MCounter of { mutable c : int }
  | MGauge of { mutable g : float }
  | MHist of Stats.t

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

(* Not [Fun.protect]: its closures would be allocated on every update,
   and the serving loop updates once per round and shard. *)
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
  | MCounter _ -> "counter"
  | MGauge _ -> "gauge"
  | MHist _ -> "histogram"

let wrong_kind name metric want =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S is a %s, not a %s" name
       (kind_name metric) want)

let incr ?(by = 1) t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | None -> Hashtbl.replace t.tbl name (MCounter { c = by })
      | Some (MCounter r) -> r.c <- r.c + by
      | Some m -> wrong_kind name m "counter")

let set_counter t name v =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | None -> Hashtbl.replace t.tbl name (MCounter { c = v })
      | Some (MCounter r) -> r.c <- v
      | Some m -> wrong_kind name m "counter")

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | None -> 0
      | Some (MCounter r) -> r.c
      | Some m -> wrong_kind name m "counter")

let set t name v =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | None -> Hashtbl.replace t.tbl name (MGauge { g = v })
      | Some (MGauge r) -> r.g <- v
      | Some m -> wrong_kind name m "gauge")

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | None -> nan
      | Some (MGauge r) -> r.g
      | Some m -> wrong_kind name m "gauge")

let observe t name x =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | None ->
        let s = Stats.create () in
        Stats.add s x;
        Hashtbl.replace t.tbl name (MHist s)
      | Some (MHist s) -> Stats.add s x
      | Some m -> wrong_kind name m "histogram")

let histogram t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl name with
      | None -> None
      | Some (MHist s) -> Some (Stats.copy s)
      | Some m -> wrong_kind name m "histogram")

let clear t = locked t (fun () -> Hashtbl.reset t.tbl)

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name m acc ->
           let v =
             match m with
             | MCounter r -> Counter r.c
             | MGauge r -> Gauge r.g
             | MHist s -> Histogram (Stats.copy s)
           in
           (name, v) :: acc)
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
       | Gauge g ->
         locked t (fun () ->
             match Hashtbl.find_opt t.tbl name with
             | None -> Hashtbl.replace t.tbl name (MGauge { g })
             | Some (MGauge r) -> r.g <- r.g +. g
             | Some m -> wrong_kind name m "gauge")
       | Histogram s ->
         locked t (fun () ->
             match Hashtbl.find_opt t.tbl name with
             | None -> Hashtbl.replace t.tbl name (MHist (Stats.copy s))
             | Some (MHist old) ->
               Hashtbl.replace t.tbl name (MHist (Stats.merge old s))
             | Some m -> wrong_kind name m "histogram"))
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
