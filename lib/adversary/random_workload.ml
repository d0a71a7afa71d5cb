module Rng = Prelude.Rng

type profile =
  | Uniform
  | Zipf of float
  | Bursty of { period : int; duty : float; peak : float }

let check ~n ~d ~rounds ~load ~alternatives =
  if n < 1 then invalid_arg "Random_workload: n must be >= 1";
  if d < 1 then invalid_arg "Random_workload: d must be >= 1";
  if rounds < 1 then invalid_arg "Random_workload: rounds must be >= 1";
  if not (load >= 0.0) then invalid_arg "Random_workload: load must be >= 0";
  if alternatives < 1 || alternatives > n then
    invalid_arg "Random_workload: alternatives out of [1, n]"

(* [k] distinct resources; the first is drawn from the profile, the
   rest re-drawn until distinct (k is tiny compared to n in practice,
   and the loop is guarded by the distinctness check above). *)
let draw_alternatives ~n ~k pick =
  let chosen = ref [] in
  while List.length !chosen < k do
    let r = pick () in
    if not (List.mem r !chosen) then chosen := !chosen @ [ r ]
  done;
  ignore n;
  !chosen

let rate_of_round ~profile ~load ~n round =
  let base = load *. float_of_int n in
  match profile with
  | Uniform | Zipf _ -> base
  | Bursty { period; duty; peak } ->
    let phase = float_of_int (round mod period) /. float_of_int period in
    if phase < duty then base *. peak
    else begin
      (* keep the mean: the off part compensates *)
      let off = (1.0 -. (duty *. peak)) /. (1.0 -. duty) in
      base *. Float.max 0.0 off
    end

let picker rng ~profile ~n () =
  match profile with
  | Uniform | Bursty _ -> Rng.int rng n
  | Zipf s -> Rng.zipf rng ~n ~s

let make ~rng ~n ~d ~rounds ~load ?(alternatives = 2) ?(profile = Uniform) () =
  check ~n ~d ~rounds ~load ~alternatives;
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let lambda = rate_of_round ~profile ~load ~n round in
    let count = Rng.poisson rng ~lambda in
    for _ = 1 to count do
      let alts =
        draw_alternatives ~n ~k:alternatives (picker rng ~profile ~n)
      in
      protos :=
        Sched.Request.make ~arrival:round ~alternatives:alts ~deadline:d
        :: !protos
    done
  done;
  Sched.Instance.build ~n_resources:n ~d (List.rev !protos)

let make_mixed_deadlines ~rng ~n ~d ~rounds ~load ?(alternatives = 2) () =
  check ~n ~d ~rounds ~load ~alternatives;
  let protos = ref [] in
  for round = 0 to rounds - 1 do
    let count = Rng.poisson rng ~lambda:(load *. float_of_int n) in
    for _ = 1 to count do
      let alts =
        draw_alternatives ~n ~k:alternatives (fun () -> Rng.int rng n)
      in
      let deadline = Rng.int_in rng 1 d in
      protos :=
        Sched.Request.make ~arrival:round ~alternatives:alts ~deadline
        :: !protos
    done
  done;
  Sched.Instance.build ~n_resources:n ~d (List.rev !protos)
