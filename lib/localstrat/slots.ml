(* The slot table a resource keeps under the local protocols: one
   occupant per (resource, round).  Holds ids in the protocol state
   machine (Machine.t) and request payloads in the cluster's node
   replicas. *)

type 'a t = (int * int, 'a) Hashtbl.t

let create () = Hashtbl.create 128
let find t ~res ~round = Hashtbl.find_opt t (res, round)
let mem t ~res ~round = Hashtbl.mem t (res, round)
let set t ~res ~round v = Hashtbl.replace t (res, round) v
let free t ~res ~round = Hashtbl.remove t (res, round)

let take t ~res ~round =
  match Hashtbl.find_opt t (res, round) with
  | None -> None
  | Some v ->
    Hashtbl.remove t (res, round);
    Some v

let first_free t ~res ~from ~last =
  let rec scan r =
    if r > last then None
    else if Hashtbl.mem t (res, r) then scan (r + 1)
    else Some r
  in
  scan from

let fold t f acc = Hashtbl.fold (fun (res, round) v acc -> f ~res ~round v acc) t acc
let clear = Hashtbl.reset
