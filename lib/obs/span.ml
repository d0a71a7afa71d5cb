(* Spans are nanosecond stamps of the monotonic clock (bechamel's
   clock_gettime binding): taking one allocates nothing, and no
   wall-clock step can make an interval negative or huge. *)
type span = int

let start () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (start ()) *. 1e-9
let diff t0 t1 = float_of_int (t1 - t0) *. 1e-9
let elapsed t0 = diff t0 (start ())
let finish metrics name t0 = Metrics.observe metrics name (elapsed t0)

let record metrics name t0 =
  match (metrics : Metrics.t option) with
  | None -> ()
  | Some m -> finish m name t0

let time metrics name f =
  let t0 = start () in
  Fun.protect ~finally:(fun () -> finish metrics name t0) f
