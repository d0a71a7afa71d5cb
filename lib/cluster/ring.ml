(* Consistent hashing over a splitmix-style mixer.  The ring is an
   immutable sorted array of (point, node) pairs; ownership is a binary
   search for the first point at or after the resource's hash, wrapping
   to the smallest point.  Each member projects [vnodes] points.
   Rebuilding the array on membership change is O(members * vnodes) —
   membership changes are rare (failover, rejoin), lookups are the
   common case. *)

let vnodes = 64

type t = {
  points : (int * int) array; (* (point, node), sorted by point *)
  members : int list;         (* ascending *)
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

let build members =
  let points =
    List.concat_map
      (fun node ->
         List.init vnodes (fun replica -> (node_point ~node ~replica, node)))
      members
    |> Array.of_list
  in
  Array.sort compare points;
  { points; members }

let create ~nodes () =
  if nodes = [] then invalid_arg "Ring.create: no nodes";
  List.iter
    (fun node -> if node < 0 then invalid_arg "Ring.create: negative node")
    nodes;
  let members = List.sort_uniq compare nodes in
  if List.length members <> List.length nodes then
    invalid_arg "Ring.create: duplicate node";
  build members

let members t = t.members
let mem t node = List.mem node t.members

let owner t resource =
  let key = resource_key resource in
  let pts = t.points in
  let len = Array.length pts in
  (* first index with point >= key, or 0 when key exceeds every point *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let m = (lo + hi) / 2 in
      if fst pts.(m) >= key then search lo m else search (m + 1) hi
  in
  let i = search 0 len in
  snd pts.(if i = len then 0 else i)

let remove t node =
  if not (mem t node) then invalid_arg "Ring.remove: not a member";
  match List.filter (fun m -> m <> node) t.members with
  | [] -> invalid_arg "Ring.remove: last member"
  | members -> build members

let add t node =
  if node < 0 then invalid_arg "Ring.add: negative node";
  if mem t node then invalid_arg "Ring.add: already a member";
  build (List.sort compare (node :: t.members))

let moved ~before ~after ~n =
  let out = ref [] in
  for resource = n - 1 downto 0 do
    if owner before resource <> owner after resource then
      out := resource :: !out
  done;
  !out
