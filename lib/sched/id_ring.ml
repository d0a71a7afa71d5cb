let[@inline] cell ring id = id land (Array.length ring - 1)

let grow ring ~low ~next vacant =
  let len = Array.length ring in
  let bigger = Array.make (2 * len) vacant in
  for id = low to next - 1 do
    bigger.(id land ((2 * len) - 1)) <- ring.(id land (len - 1))
  done;
  bigger

let rec trim ring ~low ~next vacant =
  if low < next && ring.(cell ring low) == vacant then
    trim ring ~low:(low + 1) ~next vacant
  else low
