type t = {
  id : int;
  arrival : int;
  alternatives : int array;
  deadline : int;
}

let make ~arrival ~alternatives ~deadline =
  if arrival < 0 then invalid_arg "Request.make: negative arrival";
  if deadline < 1 then invalid_arg "Request.make: deadline must be >= 1";
  if alternatives = [] then
    invalid_arg "Request.make: at least one alternative required";
  List.iter
    (fun r -> if r < 0 then invalid_arg "Request.make: negative resource")
    alternatives;
  (* order is preserved: local strategies distinguish the first and the
     second alternative.  Lists are short, and the cluster re-parses a
     request from every wire message, so the check does not allocate. *)
  let rec distinct = function
    | [] -> true
    | (r : int) :: rest -> (not (List.mem r rest)) && distinct rest
  in
  if not (distinct alternatives) then
    invalid_arg "Request.make: duplicate alternatives";
  { id = -1; arrival; alternatives = Array.of_list alternatives; deadline }

let with_id t id = { t with id }

let last_round t = t.arrival + t.deadline - 1

let is_live t ~round = round >= t.arrival && round <= last_round t

let has_alternative t resource =
  Array.exists (fun r -> r = resource) t.alternatives

let pp fmt t =
  Format.fprintf fmt "r%d@@%d->{%s} d=%d" t.id t.arrival
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.alternatives)))
    t.deadline
