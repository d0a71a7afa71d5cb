(* Monotonic nanosecond clock: bechamel's clock_gettime binding, which
   neither allocates nor follows wall-clock steps. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3
let s ns = float_of_int ns /. 1e9
