(* The request stream one run submits.

   A seeded base instance of [cycle] rounds is replayed cyclically, base
   round [r mod cycle] at live round [r], for as many rounds as the run
   lasts.  Tags are dense in submission order (round-major, base order
   within a round), so the realised stream is also a plain
   {!Sched.Instance} whose request ids equal the tags. *)

module Ivec = Prelude.Ivec

type t = {
  base : Sched.Instance.t;
  cycle : int;
  alts : int list array; (* base id -> alternatives, built once *)
  base_of : Ivec.t;      (* tag -> base id *)
  arrival : Ivec.t;      (* tag -> live round *)
  first : Ivec.t;        (* round -> first tag; one entry past the end *)
  mutable horizon : int; (* max over tags of arrival + deadline *)
}

let create (base : Sched.Instance.t) ~cycle =
  {
    base;
    cycle;
    alts =
      Array.map
        (fun (r : Sched.Request.t) -> Array.to_list r.alternatives)
        base.requests;
    base_of = Ivec.create ~capacity:65536 ();
    arrival = Ivec.create ~capacity:65536 ();
    first = Ivec.of_array [| 0 |];
    horizon = 0;
  }

let rounds t = Ivec.length t.first - 1
let size t = Ivec.length t.base_of
let first_tag t r = Ivec.get t.first r
let count t r = Ivec.get t.first (r + 1) - Ivec.get t.first r

(* Append the next live round: the base round's arrivals when [submit],
   an empty round otherwise.  Returns how many tags it added. *)
let add_round t ~submit =
  let r = rounds t in
  let br = r mod t.cycle in
  let ids =
    if submit && br < Array.length t.base.arrivals_by_round then
      t.base.arrivals_by_round.(br)
    else [||]
  in
  Array.iter
    (fun b ->
       Ivec.push t.base_of b;
       Ivec.push t.arrival r;
       t.horizon <-
         max t.horizon (r + t.base.requests.(b).Sched.Request.deadline))
    ids;
  Ivec.push t.first (size t);
  Array.length ids

let alternatives t tag = t.alts.(Ivec.get t.base_of tag)

let deadline t tag =
  t.base.requests.(Ivec.get t.base_of tag).Sched.Request.deadline

let arrival t tag = Ivec.get t.arrival tag

let request t tag =
  Sched.Request.make ~arrival:(arrival t tag) ~alternatives:(alternatives t tag)
    ~deadline:(deadline t tag)

let round_requests t r =
  Array.init (count t r) (fun i -> request t (first_tag t r + i))

(* The realised stream as an instance (ids = tags). *)
let instance t =
  Sched.Instance.build ~n_resources:t.base.n_resources ~d:t.base.d
    (List.init (size t) (request t))
