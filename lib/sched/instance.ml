type t = {
  n_resources : int;
  d : int;
  requests : Request.t array;
  arrivals_by_round : int array array;
  horizon : int;
}

let build ~n_resources ~d protos =
  if n_resources < 1 then invalid_arg "Instance.build: need >= 1 resource";
  if d < 1 then invalid_arg "Instance.build: d must be >= 1";
  let requests =
    Array.of_list (List.mapi (fun i r -> Request.with_id r i) protos)
  in
  let last_arrival = ref 0 in
  Array.iter
    (fun (r : Request.t) ->
       Array.iter
         (fun res ->
            if res >= n_resources then
              invalid_arg
                (Printf.sprintf
                   "Instance.build: request %d names resource %d >= n=%d"
                   r.id res n_resources))
         r.alternatives;
       if r.deadline > d then
         invalid_arg
           (Printf.sprintf
              "Instance.build: request %d deadline %d exceeds d=%d" r.id
              r.deadline d);
       if r.arrival < !last_arrival then
         invalid_arg "Instance.build: requests out of arrival order";
       last_arrival := r.arrival)
    requests;
  let horizon =
    Array.fold_left
      (fun acc r -> max acc (Request.last_round r + 1))
      0 requests
  in
  let buckets = Array.make (max horizon 1) [] in
  (* collect in reverse id order so each bucket ends up id-ascending *)
  for i = Array.length requests - 1 downto 0 do
    let a = requests.(i).Request.arrival in
    buckets.(a) <- i :: buckets.(a)
  done;
  {
    n_resources;
    d;
    requests;
    arrivals_by_round = Array.map Array.of_list buckets;
    horizon;
  }

let n_requests t = Array.length t.requests

let arrivals_at t round =
  if round < 0 || round >= Array.length t.arrivals_by_round then [||]
  else
    (* ids are dense and in arrival order, so a round's arrivals are one
       contiguous run of [requests] *)
    match t.arrivals_by_round.(round) with
    | [||] -> [||]
    | ids -> Array.sub t.requests ids.(0) (Array.length ids)

let total_slots t = t.n_resources * t.horizon

let slot_index t ~resource ~round =
  if resource < 0 || resource >= t.n_resources then
    invalid_arg "Instance.slot_index: resource out of range";
  if round < 0 || round >= t.horizon then
    invalid_arg "Instance.slot_index: round out of range";
  (round * t.n_resources) + resource

let slot_of_index t idx =
  if idx < 0 || idx >= total_slots t then
    invalid_arg "Instance.slot_of_index: out of range";
  (idx mod t.n_resources, idx / t.n_resources)

let restrict_alternatives t ~max:m =
  if m < 1 then invalid_arg "Instance.restrict_alternatives: max < 1";
  let protos =
    Array.to_list
      (Array.map
         (fun (r : Request.t) ->
            let alts = Array.to_list r.Request.alternatives in
            let rec take k = function
              | [] -> []
              | _ when k = 0 -> []
              | x :: rest -> x :: take (k - 1) rest
            in
            Request.make ~arrival:r.Request.arrival
              ~alternatives:(take m alts) ~deadline:r.Request.deadline)
         t.requests)
  in
  build ~n_resources:t.n_resources ~d:t.d protos

let concat = function
  | [] -> invalid_arg "Instance.concat: empty list"
  | first :: _ as parts ->
    let n_resources = first.n_resources and d = first.d in
    List.iter
      (fun p ->
         if p.n_resources <> n_resources || p.d <> d then
           invalid_arg "Instance.concat: mismatched parameters")
      parts;
    let offset = ref 0 in
    let protos = ref [] in
    List.iter
      (fun p ->
         Array.iter
           (fun (r : Request.t) ->
              protos :=
                Request.make ~arrival:(r.Request.arrival + !offset)
                  ~alternatives:(Array.to_list r.Request.alternatives)
                  ~deadline:r.Request.deadline
                :: !protos)
           p.requests;
         offset := !offset + p.horizon)
      parts;
    build ~n_resources ~d (List.rev !protos)

let pp_summary fmt t =
  Format.fprintf fmt "instance: n=%d d=%d requests=%d horizon=%d"
    t.n_resources t.d (n_requests t) t.horizon

let max_generated = 10_000_000
