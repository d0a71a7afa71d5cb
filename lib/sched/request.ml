type t = {
  id : int;
  arrival : int;
  alternatives : int array;
  deadline : int;
}

(* Order is preserved: local strategies distinguish the first and the
   second alternative.  Lists are short, and the cluster re-parses a
   request from every wire message, so the checks do not allocate. *)
let of_array ~id ~arrival ~alternatives ~deadline =
  if arrival < 0 then invalid_arg "Request.make: negative arrival";
  if deadline < 1 then invalid_arg "Request.make: deadline must be >= 1";
  let k = Array.length alternatives in
  if k = 0 then invalid_arg "Request.make: at least one alternative required";
  for i = 0 to k - 1 do
    if alternatives.(i) < 0 then invalid_arg "Request.make: negative resource"
  done;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if alternatives.(i) = alternatives.(j) then
        invalid_arg "Request.make: duplicate alternatives"
    done
  done;
  { id; arrival; alternatives; deadline }

let make ~arrival ~alternatives ~deadline =
  of_array ~id:(-1) ~arrival ~alternatives:(Array.of_list alternatives)
    ~deadline

let with_id t id = { t with id }

let last_round t = t.arrival + t.deadline - 1

let is_live t ~round = round >= t.arrival && round <= last_round t

(* a top-level loop: a local closure would allocate on every call *)
let rec mem_from (a : int array) x i =
  i < Array.length a && (a.(i) = x || mem_from a x (i + 1))

let has_alternative t resource = mem_from t.alternatives resource 0

let pp fmt t =
  Format.fprintf fmt "r%d@@%d->{%s} d=%d" t.id t.arrival
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.alternatives)))
    t.deadline
