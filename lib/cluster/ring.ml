(* Consistent hashing over a splitmix-style mixer.  Each member
   projects [vnodes] points; a resource belongs to the member owning
   the first point at or after the resource's hash, wrapping to the
   smallest point.  Ownership changes only with membership (failover,
   rejoin), so a ring computes every resource's owner once, when it is
   built, and a lookup is an array read: building is
   O(members * vnodes * log + n * log), lookups are the common case. *)

let vnodes = 64

type t = {
  table : int array;   (* owner of each resource in [0 .. n-1] *)
  members : int list;  (* ascending *)
}

(* splitmix64 finalizer, truncated to OCaml's 63-bit int.  Fixed
   constants, no per-process salt: placements must be stable across
   runs for byte-identical replay of --manual traces. *)
let mix z =
  let z = Int64.of_int z in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z Int64.max_int)

(* node points mix even pre-images, resource keys odd ones: the two
   streams are disjoint before mixing, so a resource key can never land
   exactly on a vnode point and bias the search toward one node *)
let node_point ~node ~replica = mix (((node * 0x10001) + replica + 1) * 2)
let resource_key resource = mix ((resource * 2) + 1)

(* first index of [points] with point >= key, or [len] when key exceeds
   every point *)
let rec search (points : (int * int) array) key lo hi =
  if lo >= hi then lo
  else
    let m = (lo + hi) / 2 in
    if fst points.(m) >= key then search points key lo m
    else search points key (m + 1) hi

let build ~n members =
  let points =
    List.concat_map
      (fun node ->
         List.init vnodes (fun replica -> (node_point ~node ~replica, node)))
      members
    |> Array.of_list
  in
  Array.sort compare points;
  let len = Array.length points in
  let table =
    Array.init n (fun resource ->
        let i = search points (resource_key resource) 0 len in
        snd points.(if i = len then 0 else i))
  in
  { table; members }

let create ~nodes ~n () =
  if nodes = [] then invalid_arg "Ring.create: no nodes";
  if n < 0 then invalid_arg "Ring.create: negative resource count";
  List.iter
    (fun node -> if node < 0 then invalid_arg "Ring.create: negative node")
    nodes;
  let members = List.sort_uniq compare nodes in
  if List.length members <> List.length nodes then
    invalid_arg "Ring.create: duplicate node";
  build ~n members

let members t = t.members
let mem t node = List.mem node t.members
let resources t = Array.length t.table
let owner t resource = t.table.(resource)

let remove t node =
  if not (mem t node) then invalid_arg "Ring.remove: not a member";
  match List.filter (fun m -> m <> node) t.members with
  | [] -> invalid_arg "Ring.remove: last member"
  | members -> build ~n:(resources t) members

let add t node =
  if node < 0 then invalid_arg "Ring.add: negative node";
  if mem t node then invalid_arg "Ring.add: already a member";
  build ~n:(resources t) (List.sort compare (node :: t.members))

let moved ~before ~after =
  let n = resources before in
  if resources after <> n then invalid_arg "Ring.moved: resource counts differ";
  let out = ref [] in
  for resource = n - 1 downto 0 do
    if before.table.(resource) <> after.table.(resource) then
      out := resource :: !out
  done;
  !out
