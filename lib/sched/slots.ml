(* The slot table as a stamped ring: cell (round mod d) * n + res is
   occupied iff [stamp] holds exactly [round].  Passing a round frees
   its cells for the round [d] later without a scan, so every operation
   is O(1) per slot and nothing is allocated after [create]. *)

type 'a t = {
  n : int;
  d : int;
  dummy : 'a;
  stamp : int array;
  value : 'a array;
}

let create ~n ~d ~dummy =
  if n < 1 || d < 1 then invalid_arg "Slots.create: n and d must be >= 1";
  let stamp = Array.make (n * d) min_int in
  { n; d; dummy; stamp; value = Array.make (n * d) dummy }

let cell t ~res ~round = ((round mod t.d) * t.n) + res
let mem t ~res ~round = t.stamp.(cell t ~res ~round) = round

let find t ~res ~round =
  let c = cell t ~res ~round in
  if t.stamp.(c) = round then Some t.value.(c) else None

let set t ~res ~round v =
  let c = cell t ~res ~round in
  t.stamp.(c) <- round;
  t.value.(c) <- v

let free t ~res ~round =
  let c = cell t ~res ~round in
  if t.stamp.(c) = round then begin
    t.stamp.(c) <- min_int;
    t.value.(c) <- t.dummy
  end

let take t ~res ~round =
  let v = find t ~res ~round in
  free t ~res ~round;
  v

let rec first_free t ~res ~from ~last =
  if from > last then None
  else if mem t ~res ~round:from then first_free t ~res ~from:(from + 1) ~last
  else Some from

let count_free t ~res ~from ~last =
  let k = ref 0 in
  for r = from to last do
    if not (mem t ~res ~round:r) then incr k
  done;
  !k

let clear t =
  Array.fill t.stamp 0 (Array.length t.stamp) min_int;
  Array.fill t.value 0 (Array.length t.value) t.dummy
