(* The message-budget accounting shared by the synchronous simulator
   (Net.exchange) and the live cluster transport
   (Cluster.Transport.exchange): one implementation of the paper's
   per-resource mailbox rule, so the two paths cannot drift apart.  The
   drop-set parity test in test_cluster pins the agreement. *)

type envelope = {
  b_sender : int;
  b_dst : int;
  b_deadline : int;
  b_tagged : bool;
}

let env envs i = match envs.(i) with Some e -> e | None -> assert false

(* LDF order: does message [ia] rank ahead of [ib] at [dst]?  Later
   deadline first, then higher priority, then lower sender id, then
   lower position. *)
let ahead ~priority envs dst ia ib =
  let a = env envs ia and b = env envs ib in
  if a.b_deadline <> b.b_deadline then a.b_deadline > b.b_deadline
  else
    let pa = priority ~sender:a.b_sender ~dst
    and pb = priority ~sender:b.b_sender ~dst in
    if pa <> pb then pa > pb
    else if a.b_sender <> b.b_sender then a.b_sender < b.b_sender
    else ia < ib

(* Positions are the messages' identities and their final tie-break.
   Tagged messages are delivered outright; the untagged ones are
   bucketed by destination with a counting sort of their positions, and
   a bucket over capacity keeps its [capacity] best by selection. *)
let deliver ~n ~capacity ~priority (envs : envelope option array) =
  let k = Array.length envs in
  let delivered = Array.make k false in
  let start = Array.make (n + 1) 0 in
  for i = 0 to k - 1 do
    match envs.(i) with
    | None -> ()
    | Some e ->
      if e.b_dst < 0 || e.b_dst >= n then
        invalid_arg "Budget.deliver: destination out of range";
      if e.b_tagged then delivered.(i) <- true
      else start.(e.b_dst + 1) <- start.(e.b_dst + 1) + 1
  done;
  for dst = 1 to n do
    start.(dst) <- start.(dst) + start.(dst - 1)
  done;
  let order = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  for i = 0 to k - 1 do
    match envs.(i) with
    | Some e when not e.b_tagged ->
      order.(fill.(e.b_dst)) <- i;
      fill.(e.b_dst) <- fill.(e.b_dst) + 1
    | Some _ | None -> ()
  done;
  for dst = 0 to n - 1 do
    let lo = start.(dst) and hi = start.(dst + 1) in
    let keep = min capacity (hi - lo) in
    for j = lo to lo + keep - 1 do
      if hi - lo > capacity then begin
        (* move the best of [j .. hi-1] to [j] *)
        let best = ref j in
        for c = j + 1 to hi - 1 do
          if ahead ~priority envs dst order.(c) order.(!best) then best := c
        done;
        let m = order.(!best) in
        order.(!best) <- order.(j);
        order.(j) <- m
      end;
      delivered.(order.(j)) <- true
    done
  done;
  delivered
