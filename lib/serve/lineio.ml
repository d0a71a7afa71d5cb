(* Line framing over byte streams, shared by the server's nonblocking
   connection handling and the clients' readers.

   Framing scans in place.  The search for the last newline walks back
   from the buffer's end, over the bytes that arrived since the
   previous call when the caller says how many, so a long line arriving
   over many reads is searched only as its bytes arrive and copied only
   once it is complete.  The complete
   lines up to that newline are blitted into a domain-private scratch
   and split there walking backwards, each line consed onto the
   result, so the lines come out oldest first with no reversal.  Each
   line is copied out once; the partial line after the last newline
   moves to the front of the buffer. *)

let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 4096))

(* The lines of [b.[0 .. stop-1]] ending before [stop], consed onto
   [acc]: [i] walks back from [stop - 1] to the start of the line that
   [stop] ends. *)
let rec collect b stop i acc =
  if i >= 0 && Bytes.unsafe_get b i <> '\n' then collect b stop (i - 1) acc
  else begin
    let acc =
      if stop - i > 1 then Bytes.sub_string b (i + 1) (stop - i - 1) :: acc
      else acc
    in
    if i < 0 then acc else collect b i (i - 1) acc
  end

let rec last_newline buf from i =
  if i < from then -1
  else if Buffer.nth buf i = '\n' then i
  else last_newline buf from (i - 1)

let extract_lines ?fresh buf =
  let len = Buffer.length buf in
  let from = match fresh with Some n -> max 0 (len - n) | None -> 0 in
  match last_newline buf from (len - 1) with
  | -1 -> []
  | last ->
    let tail = len - last - 1 in
    let s = Domain.DLS.get scratch in
    if Bytes.length !s < max last tail then
      s := Bytes.create (max (max last tail) (2 * Bytes.length !s));
    Buffer.blit buf 0 !s 0 last;
    let lines = collect !s last (last - 1) [] in
    if tail = 0 then Buffer.clear buf
    else begin
      Buffer.blit buf (last + 1) !s 0 tail;
      Buffer.clear buf;
      Buffer.add_subbytes buf !s 0 tail
    end;
    lines

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done
