(* The workload zoo: seeded, deterministic production-shaped traffic.

   Two structural rules keep the generators honest (both pinned by the
   qcheck suite in test/test_zoo.ml):

   - every draw comes from an RNG keyed by (seed, family, round) —
     never from one long sequential stream — so two rounds never share
     generator state and equal parameters give byte-identical
     instances;

   - the per-round arrival count is floor(rate) plus one Bernoulli
     trial of the fractional part against a fixed uniform draw.  For a
     fixed draw that count is non-decreasing in the rate, and request
     attributes are drawn sequentially after the count, so raising the
     load knob can only append requests to a round, never perturb the
     ones already there. *)

module Rng = Prelude.Rng

type family = {
  key : string;
  label : string;
  synopsis : string;
  default_load : float;
  generate :
    n:int -> d:int -> rounds:int -> load:float -> seed:int ->
    Sched.Instance.t;
}

let check ~n ~d ~rounds ~load =
  if n < 1 then invalid_arg "Workload.Zoo: n_resources must be >= 1";
  if d < 1 then invalid_arg "Workload.Zoo: d must be >= 1";
  if rounds < 1 then invalid_arg "Workload.Zoo: rounds must be >= 1";
  if not (load >= 0.0) then invalid_arg "Workload.Zoo: load must be >= 0"

(* Independent generator for (seed, family tag, round): splitmix64
   seeds that differ in any bit give independent streams, so mixing
   the three keys with odd multipliers is enough. *)
let keyed ~seed ~tag ~round =
  Rng.create
    ~seed:((seed * 0x9E3779B1) lxor (tag * 0x85EBCA77) lxor (round * 0xC2B2AE35))

(* floor(rate) + Bernoulli(frac rate): monotone in [rate] for a fixed
   uniform.  The uniform is drawn unconditionally so the stream
   position after the count never depends on the rate. *)
let count_of_rate rng rate =
  let rate = Float.max 0.0 rate in
  let base = Float.floor rate in
  let u = Rng.float rng 1.0 in
  int_of_float base + (if u < rate -. base then 1 else 0)

(* Two distinct alternatives via an arbitrary picker.  Bounded
   rejection keeps heavy-tailed pickers (Zipf) terminating
   deterministically; the fallback neighbour is reached only when the
   picker keeps returning [first]. *)
let distinct_pair ~n pick =
  let first = pick () in
  if n < 2 then [ first ]
  else begin
    let second = ref (pick ()) in
    let tries = ref 0 in
    while !second = first && !tries < 16 do
      second := pick ();
      incr tries
    done;
    if !second = first then second := (first + 1) mod n;
    [ first; !second ]
  end

let build ~n ~d protos = Sched.Instance.build ~n_resources:n ~d protos

(* -- hotspot: Zipf popularity over a drifting hot set ----------------- *)

let tag_hotspot = 11
let tag_hotspot_epoch = 12

let hotspot ~n ~d ~rounds ~load ~seed =
  check ~n ~d ~rounds ~load;
  let drift = max 1 (rounds / 6) in
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let shift =
      (* the epoch RNG re-randomises where rank 0 lives, so the hot
         spot relocates every [drift] rounds *)
      Rng.int (keyed ~seed ~tag:tag_hotspot_epoch ~round:(round / drift)) n
    in
    let rng = keyed ~seed ~tag:tag_hotspot ~round in
    let count = count_of_rate rng (load *. float_of_int n) in
    for _ = 1 to count do
      let pick () = (Rng.zipf rng ~n ~s:1.2 + shift) mod n in
      let alternatives = distinct_pair ~n pick in
      protos :=
        Sched.Request.make ~arrival:round ~alternatives ~deadline:d :: !protos
    done
  done;
  build ~n ~d (List.rev !protos)

(* -- diurnal: sinusoidal day curve ------------------------------------ *)

let tag_diurnal = 21

let diurnal ~n ~d ~rounds ~load ~seed =
  check ~n ~d ~rounds ~load;
  let period = max 4 (rounds / 2) in
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let rng = keyed ~seed ~tag:tag_diurnal ~round in
    let phase = 2.0 *. Float.pi *. float_of_int round /. float_of_int period in
    let rate = load *. float_of_int n *. (1.0 +. (0.75 *. sin phase)) in
    let count = count_of_rate rng rate in
    for _ = 1 to count do
      let pick () = Rng.int rng n in
      let alternatives = distinct_pair ~n pick in
      protos :=
        Sched.Request.make ~arrival:round ~alternatives ~deadline:d :: !protos
    done
  done;
  build ~n ~d (List.rev !protos)

(* -- vod: correlated video-on-demand bursts --------------------------- *)

let tag_vod = 31
let tag_vod_title = 32

(* A title's replica set is a pure function of (seed, title): every
   session for the title, in any round, contends for the same pair. *)
let title_alternatives ~seed ~n title =
  let rng = keyed ~seed ~tag:tag_vod_title ~round:title in
  let pick () = Rng.int rng n in
  distinct_pair ~n pick

let vod ~n ~d ~rounds ~load ~seed =
  check ~n ~d ~rounds ~load;
  let titles = max 8 (4 * n) in
  (* a session emits [viewers] requests per round for [len] rounds;
     viewers ~ U{1..3} (mean 2), len ~ U{1..2d} (mean d + 1/2), so one
     session contributes 2(d + 1/2) requests on average and the session
     rate below makes the mean offered load [load]. *)
  let session_rate =
    load *. float_of_int n /. (2.0 *. (float_of_int d +. 0.5))
  in
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let rng = keyed ~seed ~tag:tag_vod ~round in
    let sessions = count_of_rate rng session_rate in
    for _ = 1 to sessions do
      let title = Rng.zipf rng ~n:titles ~s:1.1 in
      let len = Rng.int_in rng 1 (2 * d) in
      let viewers = Rng.int_in rng 1 3 in
      let alternatives = title_alternatives ~seed ~n title in
      for off = 0 to len - 1 do
        let arrival = round + off in
        if arrival < rounds then
          for _ = 1 to viewers do
            protos :=
              Sched.Request.make ~arrival ~alternatives ~deadline:d :: !protos
          done
      done
    done
  done;
  (* sessions span rounds, so protos are not in arrival order; the
     sort is stable, keeping same-round requests in emission order *)
  let arr = Array.of_list (List.rev !protos) in
  let () =
    let key (r : Sched.Request.t) = r.arrival in
    (* stable sort by arrival *)
    let tagged = Array.mapi (fun i r -> (key r, i, r)) arr in
    Array.sort
      (fun (a, i, _) (b, j, _) -> if a <> b then compare a b else compare i j)
      tagged;
    Array.iteri (fun i (_, _, r) -> arr.(i) <- r) tagged
  in
  build ~n ~d (Array.to_list arr)

(* -- overload: open-loop ramp ----------------------------------------- *)

let tag_overload = 41

let overload ~n ~d ~rounds ~load ~seed =
  check ~n ~d ~rounds ~load;
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let rng = keyed ~seed ~tag:tag_overload ~round in
    let ramp =
      if rounds = 1 then 1.0
      else 1.0 +. (float_of_int round /. float_of_int (rounds - 1))
    in
    let count = count_of_rate rng (load *. ramp *. float_of_int n) in
    for _ = 1 to count do
      let pick () = Rng.int rng n in
      let alternatives = distinct_pair ~n pick in
      protos :=
        Sched.Request.make ~arrival:round ~alternatives ~deadline:d :: !protos
    done
  done;
  build ~n ~d (List.rev !protos)

(* -- mix: adversarial bursts alternating with benign traffic ---------- *)

let tag_mix = 51

let mix ~n ~d ~rounds ~load ~seed =
  check ~n ~d ~rounds ~load;
  let phase_len = max 1 (2 * d) in
  let tight = max 1 ((d + 1) / 2) in
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let rng = keyed ~seed ~tag:tag_mix ~round in
    let phase = round / phase_len in
    if phase mod 2 = 0 then begin
      (* adversarial phase: at its first round, a saturating burst on
         each adjacent resource pair (the paper's block shape); the
         rest of the phase is drain time.  1.5x the pair's capacity
         over a window of d rounds, every other request tightened. *)
      if round mod phase_len = 0 then begin
        let burst = int_of_float (1.5 *. load *. float_of_int (2 * d)) in
        for pair = 0 to (n / 2) - 1 do
          let a = 2 * pair and b = (2 * pair) + 1 in
          for j = 0 to burst - 1 do
            let deadline = if j mod 2 = 0 then d else tight in
            let alternatives = if Rng.bool rng then [ a; b ] else [ b; a ] in
            protos :=
              Sched.Request.make ~arrival:round ~alternatives ~deadline
              :: !protos
          done
        done;
        if n = 1 then begin
          (* degenerate single-resource instance: burst on resource 0 *)
          let burst = int_of_float (1.5 *. load *. float_of_int d) in
          for j = 0 to burst - 1 do
            let deadline = if j mod 2 = 0 then d else tight in
            protos :=
              Sched.Request.make ~arrival:round ~alternatives:[ 0 ] ~deadline
              :: !protos
          done
        end
      end
    end
    else begin
      (* benign phase: light uniform traffic, room to recover *)
      let count = count_of_rate rng (0.5 *. load *. float_of_int n) in
      for _ = 1 to count do
        let pick () = Rng.int rng n in
        let alternatives = distinct_pair ~n pick in
        protos :=
          Sched.Request.make ~arrival:round ~alternatives ~deadline:d
          :: !protos
      done
    end
  done;
  build ~n ~d (List.rev !protos)

(* -- registry --------------------------------------------------------- *)

let families =
  [
    {
      key = "hotspot";
      label = "Zipf hot spot, drifting";
      synopsis = "Zipf(1.2) resource popularity; hot set relocates ~6x per run";
      default_load = 1.2;
      generate = hotspot;
    };
    {
      key = "diurnal";
      label = "diurnal load curve";
      synopsis = "sinusoidal rate 0.25x-1.75x of mean, two periods per run";
      default_load = 1.1;
      generate = diurnal;
    };
    {
      key = "vod";
      label = "correlated VoD bursts";
      synopsis = "Zipf titles; all viewers of a title share one replica pair";
      default_load = 1.2;
      generate = vod;
    };
    {
      key = "overload";
      label = "open-loop overload ramp";
      synopsis = "uniform traffic ramping 1x-2x of load (1.5x-3x at load 1.5)";
      default_load = 1.5;
      generate = overload;
    };
    {
      key = "mix";
      label = "adversarial/benign mix";
      synopsis = "paired saturating bursts alternating with light uniform";
      default_load = 1.2;
      generate = mix;
    };
  ]

let names = List.map (fun f -> f.key) families
let find key = List.find_opt (fun f -> f.key = key) families

let generate ~name ~n ~d ~rounds ~load ~seed =
  match find name with
  | None ->
      Error
        (Printf.sprintf "unknown zoo workload %S (expected one of: %s)" name
           (String.concat ", " names))
  | Some f -> (
      try Ok (f.generate ~n ~d ~rounds ~load ~seed)
      with Invalid_argument m -> Error m)

let chunked f ~n ~d ~load ~seed ~chunk =
  if chunk < 1 then invalid_arg "Zoo.chunked: chunk must be >= 1";
  let index = ref (-1) and inst = ref None in
  fun round ->
    let k = round / chunk in
    if k <> !index then begin
      inst := Some (f.generate ~n ~d ~rounds:chunk ~load ~seed:(seed + k));
      index := k
    end;
    Array.map
      (fun (r : Sched.Request.t) ->
         Sched.Request.of_array ~id:r.id ~arrival:round
           ~alternatives:r.alternatives ~deadline:r.deadline)
      (Sched.Instance.arrivals_at (Option.get !inst) (round - (k * chunk)))
