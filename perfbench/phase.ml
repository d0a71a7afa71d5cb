(* One measured pass over a request stream: how long each round took,
   when each tag's terminal was seen, and the end-to-end figures that
   follow from them. *)

module Ivec = Prelude.Ivec

type t = {
  dec : Decisions.t;
  round_ns : Ivec.t;   (* every round, drain included *)
  start_ns : Ivec.t;   (* round -> when it started *)
  probe_ns : Ivec.t;   (* round -> a {!Calib.sample} taken right after it *)
  term_ns : Ivec.t;    (* tag -> when its terminal was seen; 0 = never *)
  term_round : Ivec.t; (* tag -> the round under way when it was seen *)
  mutable submit_rounds : int;
}

let create () =
  {
    dec = Decisions.create ();
    round_ns = Ivec.create ();
    start_ns = Ivec.create ();
    probe_ns = Ivec.create ();
    term_ns = Ivec.create ~capacity:65536 ();
    term_round = Ivec.create ~capacity:65536 ();
    submit_rounds = 0;
  }

(* Room for every tag the stream holds so far. *)
let extend t stream =
  Decisions.ensure t.dec (Stream.size stream);
  while Ivec.length t.term_ns < Stream.size stream do
    Ivec.push t.term_ns 0;
    Ivec.push t.term_round 0
  done

(* Close a round that ran from [t0] to [t1], then probe the host. *)
let end_round t ~t0 ~t1 =
  Ivec.push t.start_ns t0;
  Ivec.push t.round_ns (t1 - t0);
  Ivec.push t.probe_ns (Calib.sample ())

let terminal t ~at ~tag ~kind ~round ~res =
  if Decisions.record t.dec ~tag ~kind ~round ~res then begin
    Ivec.set t.term_ns tag at;
    Ivec.set t.term_round tag (Ivec.length t.round_ns)
  end

let round_ms t =
  Array.map (fun ns -> float_of_int ns /. 1e6) (Ivec.to_array t.round_ns)

(* The timed rounds [lo, hi): submitting rounds past a short warm-up. *)
let window t = (min 16 (t.submit_rounds / 4), t.submit_rounds)

let p50_ms t =
  let lo, hi = window t in
  Summary.median (Array.sub (round_ms t) lo (hi - lo))

(* Each round's host factor ({!Calib}): from the probes of the rounds
   within [reach] of it, so that a slow stretch is corrected as soon as
   it starts. *)
let reach = 16

let host_factors t =
  let probes = Ivec.to_array t.probe_ns in
  let n = Array.length probes in
  Array.init n (fun r ->
      let a = max 0 (r - reach) and b = min n (r + reach + 1) in
      Calib.factor (Array.sub probes a (b - a)))

(* A request's latency on the busy clock, which runs only while a round
   is outstanding, at reference host speed ([host] per round): from the
   start of its arrival round to its terminal, leaving out the
   generator's work and the probe between rounds.  A terminal seen
   after the last round counts as the end of that round.  Negative when
   none was seen. *)
let latency_ns t stream ~host =
  let rounds = Ivec.length t.round_ns in
  let busy = Array.make (rounds + 1) 0.0 in
  for r = 0 to rounds - 1 do
    busy.(r + 1) <- busy.(r) +. (float_of_int (Ivec.get t.round_ns r) *. host.(r))
  done;
  Array.init (Stream.size stream) (fun tag ->
      let at = Ivec.get t.term_ns tag in
      if at = 0 then -1.0
      else
        let r = Ivec.get t.term_round tag in
        let seen =
          if r < rounds then
            busy.(r)
            +. float_of_int
                 (min (at - Ivec.get t.start_ns r) (Ivec.get t.round_ns r))
               *. host.(r)
          else busy.(rounds)
        in
        seen -. busy.(Stream.arrival stream tag))

(* The timed rounds split into up to ten equal segments.  A timing is
   reported as the lower quartile over segments of the statistic within
   each segment, computed from round times scaled to reference host
   speed.  The scaling takes out the stretches in which the whole host
   runs slower; the lower quartile, the ones in which only the program
   was slowed, unless they cover three quarters of the run.  Over five
   runs of one seed on a 2-vCPU VM, the lower quartile of the scaled
   segments ranged 0.06-0.13 of its median where the median over
   segments ranged 0.07-0.21.  Tails are not reported as metrics: on
   that VM a p90 round time or a p99 latency moved by more than a
   quarter between runs of the same code.  The log prints the whole-run
   p50/p90/p99 with their sample counts, and per segment the raw round
   median, the host factor and the scaled medians. *)
let segments ~lo ~hi =
  let k = max 1 (min 10 ((hi - lo) / 8)) in
  List.init k (fun i ->
      (lo + (i * (hi - lo) / k), lo + ((i + 1) * (hi - lo) / k)))

let end_to_end t stream ~setup_s ~opt ~rss_mb =
  let round_ms = round_ms t in
  let host = host_factors t in
  let scaled_ms = Array.mapi (fun r ms -> ms *. host.(r)) round_ms in
  let lat_ms =
    Array.map
      (fun ns -> if ns < 0.0 then nan else ns /. 1e6)
      (latency_ns t stream ~host)
  in
  let first_tag = Stream.first_tag stream in
  let rounds a b = Array.sub round_ms a (b - a) in
  let scaled a b = Array.sub scaled_ms a (b - a) in
  let lats a b =
    Array.sub lat_ms (first_tag a) (first_tag b - first_tag a)
    |> Array.to_list
    |> List.filter (fun x -> not (Float.is_nan x))
    |> Array.of_list
  in
  let lo, hi = window t in
  let segs = segments ~lo ~hi in
  (* the lower quartile over segments of [f a b], a time *)
  let seg f =
    Summary.quantile
      (Array.of_list (List.map (fun (a, b) -> f a b) segs))
      0.25
  in
  let count k = Decisions.count_kind t.dec k in
  let served = count Decisions.sched and expired = count Decisions.expired in
  let admitted = Stream.size stream - count Decisions.rejected in
  Summary.describe ~what:"setup_s" ~unit_:"s" setup_s;
  Summary.describe ~what:"round" ~unit_:"ms" (rounds lo hi);
  Summary.describe ~what:"latency" ~unit_:"ms" (lats lo hi);
  Printf.printf "opt %d served %d expired %d admitted %d\n" opt served expired
    admitted;
  let per_seg f =
    String.concat "" (List.map (fun (a, b) -> Printf.sprintf " %.3f" (f a b)) segs)
  in
  Printf.printf "segments round p50 ms:%s\n"
    (per_seg (fun a b -> Summary.median (rounds a b)));
  Printf.printf "segments host factor:%s\n"
    (per_seg (fun a b -> Summary.median (Array.sub host a (b - a))));
  Printf.printf "segments scaled round p50 ms:%s\n"
    (per_seg (fun a b -> Summary.median (scaled a b)));
  Printf.printf "segments scaled latency p50 ms:%s\n"
    (per_seg (fun a b -> Summary.median (lats a b)));
  let ratio a b = Summary.ratio (float_of_int a) (float_of_int b) in
  (* seconds per request, so that it scales like any other time *)
  let s_per_req a b =
    Summary.ratio
      (Array.fold_left ( +. ) 0.0 (scaled a b) /. 1e3)
      (float_of_int (first_tag b - first_tag a))
  in
  [
    ("setup_s", Summary.median setup_s);
    ("throughput_rps", 1.0 /. seg s_per_req);
    ("round_ms_p50", seg (fun a b -> Summary.median (scaled a b)));
    ("latency_ms_p50", seg (fun a b -> Summary.median (lats a b)));
    ("opt_ratio", ratio opt served);
    ("violation_rate", ratio expired admitted);
    ("rss_peak_mb", rss_mb);
  ]
