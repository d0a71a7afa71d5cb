type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () =
  let capacity = if capacity < 1 then 1 else capacity in
  { data = Array.make capacity 0; len = 0 }

let length t = t.len

let check t i op =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Ivec.%s: index %d out of [0,%d)" op i t.len)

let get t i =
  check t i "get";
  t.data.(i)

let set t i v =
  check t i "set";
  t.data.(i) <- v

let grow t =
  let cap = Array.length t.data in
  let bigger = Array.make (2 * cap) 0 in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_array t = Array.sub t.data 0 t.len

let of_array a =
  let len = Array.length a in
  let data = if len = 0 then Array.make 1 0 else Array.copy a in
  { data; len }
