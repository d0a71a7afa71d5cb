(* Sample summaries and the result record the benchmark prints. *)

let quantile xs q =
  if Array.length xs = 0 then nan else Prelude.Stats.quantile xs q

let median xs = quantile xs 0.5

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Run [f], logging how long it took: the phases around the measured
   one (OPT, checks, replays) are not free, and a run has a budget. *)
let timed label f =
  let t0 = Clock.now_ns () in
  let r = f () in
  Printf.printf "phase %-24s %.3fs\n%!" label (Clock.s (Clock.now_ns () - t0));
  r

(* The highest of the usual percentiles that still has at least ten
   samples beyond it (the median when even p75 has fewer). *)
let tail xs =
  let n = float_of_int (Array.length xs) in
  let q =
    List.find_opt
      (fun q -> n *. (1.0 -. q) >= 10.0)
      [ 0.999; 0.99; 0.95; 0.9; 0.75 ]
    |> Option.value ~default:0.5
  in
  (q, quantile xs q)

(* A timing line for the human-readable log: median, the fixed
   percentile the metric reports, and the highest percentile with ten
   samples beyond it. *)
let describe ~what ~unit_ xs =
  let q, v = tail xs in
  Printf.printf "timing %-10s n=%d p50=%.4f%s p90=%.4f%s p99=%.4f%s tail=p%g:%.4f%s\n"
    what (Array.length xs) (median xs) unit_ (quantile xs 0.9) unit_
    (quantile xs 0.99) unit_ (100.0 *. q) v unit_

(* ------------------------------------------------------------------ *)
(* one run's result *)

type result = {
  e2e : (string * float) list;
  layers : (string * float) list;
  trace : Trace.t option;
  attempted : int;  (* requests submitted *)
  rejected : int;   (* requests refused by the program *)
  params : string;
}

(* ------------------------------------------------------------------ *)
(* metrics *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v = Printf.sprintf "%.17g" v

(* The last stdout line: exactly correct / attempted / failed / metrics. *)
let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
           (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)
