module Request = Sched.Request
module Strategy = Sched.Strategy
module Bipartite = Graph.Bipartite
module Matching = Graph.Matching
module Tiered = Graph.Tiered

type kind = Kernel.kind = Fix | Current | Fix_balance | Eager | Balance | Remax

type solver = Kernel | Rebuild

(* The state below belongs to the Rebuild path: the naive from-scratch
   solver retained as the differential-testing oracle for the
   incremental kernel (see kernel.ml, which produces identical
   services round for round). *)
type state = {
  kind : kind;
  n : int;
  d : int;
  bias : Strategy.bias;
  active : (int, Request.t) Hashtbl.t; (* unserved, unexpired requests *)
  assigned : (int, int * int) Hashtbl.t; (* id -> (resource, abs. round) *)
}

let kind_name = Kernel.kind_name

(* Requests and serves are keyed by unique ids, so ordering by id alone
   reproduces the polymorphic [compare] these sites used to rely on. *)
let by_id (a, _) (b, _) = Int.compare a b

let serve_compare (a : Strategy.serve) (b : Strategy.serve) =
  if a.request <> b.request then Int.compare a.request b.request
  else Int.compare a.resource b.resource

(* Remove requests whose window closed before [round].  Their
   assignments, if any, are in the past and are dropped too. *)
let expire st ~round =
  let dead =
    Hashtbl.fold
      (fun id r acc -> if Request.last_round r < round then id :: acc else acc)
      st.active []
  in
  List.iter
    (fun id ->
       Hashtbl.remove st.active id;
       Hashtbl.remove st.assigned id)
    dead

(* The subproblem right side: slots (resource, round+offset) for
   offset in [0, d).  Dense vertex index. *)
let slot_vertex st ~round ~resource ~slot_round =
  ((slot_round - round) * st.n) + resource

let vertex_slot st ~round v = (v mod st.n, round + (v / st.n))

(* Candidate service rounds of request [r] at the current round. *)
let window st (r : Request.t) ~round =
  let lo = max round r.Request.arrival in
  let hi = min (Request.last_round r) (round + st.d - 1) in
  (lo, hi)

(* Solve one round of a fix-family strategy: previously assigned pairs
   are frozen (excluded from the problem together with their slots), the
   remaining requests are matched into the remaining slots. *)
let solve_fix_family st ~round ~tiers_of =
  let occupied = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ (resource, slot_round) ->
       if slot_round >= round then
         Hashtbl.replace occupied
           (slot_vertex st ~round ~resource ~slot_round)
           ())
    st.assigned;
  let lefts =
    Hashtbl.fold
      (fun id r acc ->
         if Hashtbl.mem st.assigned id then acc else (id, r) :: acc)
      st.active []
    |> List.sort by_id
    |> Array.of_list
  in
  let g =
    Bipartite.create ~n_left:(Array.length lefts) ~n_right:(st.n * st.d)
  in
  let edge_info = ref [] in
  Array.iteri
    (fun li (_, r) ->
       Array.iter
         (fun resource ->
            let lo, hi = window st r ~round in
            for slot_round = lo to hi do
              let v = slot_vertex st ~round ~resource ~slot_round in
              if not (Hashtbl.mem occupied v) then begin
                let e = Bipartite.add_edge g ~left:li ~right:v in
                edge_info := (e, r, resource, slot_round) :: !edge_info
              end
            done)
         r.Request.alternatives)
    lefts;
  let weights = Array.make (Bipartite.n_edges g) [||] in
  List.iter
    (fun (e, r, resource, slot_round) ->
       weights.(e) <- tiers_of r ~resource ~slot_round)
    !edge_info;
  let m = Tiered.solve g ~weight:(fun e -> weights.(e)) in
  Array.iteri
    (fun li (id, _) ->
       let v = m.Matching.left_to.(li) in
       if v >= 0 then begin
         let resource, slot_round = vertex_slot st ~round v in
         Hashtbl.replace st.assigned id (resource, slot_round)
       end)
    lefts

(* Solve one round of a full-reschedule strategy (eager/balance): every
   active request competes for every slot of the window; the keep tier
   guarantees previously scheduled requests stay scheduled. *)
let solve_full st ~round ~tiers_of =
  let lefts =
    Hashtbl.fold (fun id r acc -> (id, r) :: acc) st.active []
    |> List.sort by_id
    |> Array.of_list
  in
  let g =
    Bipartite.create ~n_left:(Array.length lefts) ~n_right:(st.n * st.d)
  in
  let edge_info = ref [] in
  Array.iteri
    (fun li (id, r) ->
       let kept = Hashtbl.mem st.assigned id in
       Array.iter
         (fun resource ->
            let lo, hi = window st r ~round in
            for slot_round = lo to hi do
              let v = slot_vertex st ~round ~resource ~slot_round in
              let e = Bipartite.add_edge g ~left:li ~right:v in
              edge_info := (e, r, kept, resource, slot_round) :: !edge_info
            done)
         r.Request.alternatives)
    lefts;
  let weights = Array.make (Bipartite.n_edges g) [||] in
  List.iter
    (fun (e, r, kept, resource, slot_round) ->
       weights.(e) <- tiers_of r ~kept ~resource ~slot_round)
    !edge_info;
  let m = Tiered.solve g ~weight:(fun e -> weights.(e)) in
  Hashtbl.reset st.assigned;
  Array.iteri
    (fun li (id, _) ->
       let v = m.Matching.left_to.(li) in
       if v >= 0 then begin
         let resource, slot_round = vertex_slot st ~round v in
         Hashtbl.replace st.assigned id (resource, slot_round)
       end)
    lefts

(* Solve one round of A_current: all active requests versus the n slots
   of the current round only. *)
let solve_current st ~round =
  let lefts =
    Hashtbl.fold (fun id r acc -> (id, r) :: acc) st.active []
    |> List.sort by_id
    |> Array.of_list
  in
  let g = Bipartite.create ~n_left:(Array.length lefts) ~n_right:st.n in
  let weights = ref [] in
  Array.iteri
    (fun li (_, r) ->
       Array.iter
         (fun resource ->
            let e = Bipartite.add_edge g ~left:li ~right:resource in
            weights :=
              (e, [| 1; st.bias ~request:r ~resource ~round |]) :: !weights)
         r.Request.alternatives)
    lefts;
  let warr = Array.make (Bipartite.n_edges g) [||] in
  List.iter (fun (e, w) -> warr.(e) <- w) !weights;
  let m = Tiered.solve g ~weight:(fun e -> warr.(e)) in
  Hashtbl.reset st.assigned;
  Array.iteri
    (fun li (id, _) ->
       let v = m.Matching.left_to.(li) in
       if v >= 0 then Hashtbl.replace st.assigned id (v, round))
    lefts

(* Services of the current round: assigned pairs landing on slot round
   [round]; served requests leave the active set. *)
let collect_serves st ~round =
  let serves =
    Hashtbl.fold
      (fun id (resource, slot_round) acc ->
         if slot_round = round then
           { Strategy.request = id; resource } :: acc
         else acc)
      st.assigned []
    |> List.sort serve_compare
  in
  List.iter
    (fun { Strategy.request; _ } ->
       Hashtbl.remove st.active request;
       Hashtbl.remove st.assigned request)
    serves;
  serves

let step st ~round ~arrivals =
  expire st ~round;
  Array.iter
    (fun (r : Request.t) -> Hashtbl.replace st.active r.Request.id r)
    arrivals;
  (match st.kind with
   | Fix ->
     let tiers_of r ~resource ~slot_round =
       [|
         (if r.Request.arrival = round then 1 else 0);
         1;
         st.bias ~request:r ~resource ~round:slot_round;
       |]
     in
     solve_fix_family st ~round ~tiers_of
   | Fix_balance ->
     let tiers_of r ~resource ~slot_round =
       let w = Array.make (st.d + 1) 0 in
       w.(slot_round - round) <- 1;
       w.(st.d) <- st.bias ~request:r ~resource ~round:slot_round;
       w
     in
     solve_fix_family st ~round ~tiers_of
   | Eager ->
     let tiers_of r ~kept ~resource ~slot_round =
       [|
         (if kept then 1 else 0);
         1;
         (if slot_round = round then 1 else 0);
         st.bias ~request:r ~resource ~round:slot_round;
       |]
     in
     solve_full st ~round ~tiers_of
   | Remax ->
     (* the ablation drops the keep tier entirely *)
     let tiers_of r ~kept:_ ~resource ~slot_round =
       [|
         1;
         (if slot_round = round then 1 else 0);
         st.bias ~request:r ~resource ~round:slot_round;
       |]
     in
     solve_full st ~round ~tiers_of
   | Balance ->
     let tiers_of r ~kept ~resource ~slot_round =
       let w = Array.make (st.d + 3) 0 in
       w.(0) <- (if kept then 1 else 0);
       w.(1) <- 1;
       w.(2 + (slot_round - round)) <- 1;
       w.(st.d + 2) <- st.bias ~request:r ~resource ~round:slot_round;
       w
     in
     solve_full st ~round ~tiers_of
   | Current -> solve_current st ~round);
  collect_serves st ~round

let make kind ?(solver = Kernel) ?(bias = Strategy.no_bias) ?metrics () :
  Strategy.factory =
 fun ~n ~d ->
  match solver with
  | Kernel ->
    Kernel.make ~kind ~n ~d ~bias ~metrics:(Obs.Metrics.resolve metrics) ()
  | Rebuild ->
    let st =
      {
        kind;
        n;
        d;
        bias;
        active = Hashtbl.create 64;
        assigned = Hashtbl.create 64;
      }
    in
    { Strategy.name = kind_name kind;
      step = (fun ~round ~arrivals -> step st ~round ~arrivals) }

let fix ?solver ?bias ?metrics () = make Fix ?solver ?bias ?metrics ()
let remax ?solver ?bias ?metrics () = make Remax ?solver ?bias ?metrics ()
let current ?solver ?bias ?metrics () = make Current ?solver ?bias ?metrics ()

let fix_balance ?solver ?bias ?metrics () =
  make Fix_balance ?solver ?bias ?metrics ()

let eager ?solver ?bias ?metrics () = make Eager ?solver ?bias ?metrics ()
let balance ?solver ?bias ?metrics () = make Balance ?solver ?bias ?metrics ()

let all =
  [
    ("A_fix", fun ?bias () -> fix ?bias ());
    ("A_current", fun ?bias () -> current ?bias ());
    ("A_fix_balance", fun ?bias () -> fix_balance ?bias ());
    ("A_eager", fun ?bias () -> eager ?bias ());
    ("A_balance", fun ?bias () -> balance ?bias ());
  ]
