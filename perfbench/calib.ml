(* How fast the host runs right now.

   On a small shared machine the other tenants change the speed of the
   program by up to 1.6x for stretches of seconds to minutes, with no
   steal time to show for it.  A run that falls in a slow stretch is
   slow all through, so no statistic over the run's own samples can
   tell it from a slower program.  A probe can: a fixed piece of work
   that belongs to the benchmark, not to the program, timed between
   rounds.  A time is reported as [time * reference_ns / probe], the
   time it would have taken with the host at reference speed, with the
   probe's median taken over the same stretch of the run as the time.

   The probe has two halves, because the slow stretches hurt two kinds
   of work differently.  Tight integer loops over a table in L1 lose
   ~1.3x (core contention); allocating and walking a fresh list, as the
   program's OCaml does all the time, loses up to ~1.8x (the minor heap
   streams through a contended cache).  Either half alone corrected
   half of the slowdown of score-balance's rounds; their sum left a
   4% spread between the round times of fast and slow stretches, from
   49% uncorrected. *)

let table = Array.make 512 0

(* Four independent integer chains, loads and stores in L1. *)
let loop () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  for i = 1 to 8192 do
    a := !a lxor (!a lsl 13);
    a := !a lxor (!a lsr 7);
    b := !b + (i * 3);
    c := !c lxor (!b lsr 3);
    d := !d + Array.unsafe_get table (!a land 511);
    Array.unsafe_set table (!c land 511) (!d + !a)
  done;
  table.(0) <- !a + !b + !c + !d

(* 3000 fresh pairs in a list, then one walk over it. *)
let alloc () =
  let l = ref [] in
  for i = 1 to 3000 do
    l := (i, i lxor 5) :: !l
  done;
  table.(1) <- List.fold_left (fun acc (a, b) -> acc + a + b) 0 !l

(* One probe, in ns. *)
let probe () =
  let t0 = Clock.now_ns () in
  loop ();
  alloc ();
  Clock.now_ns () - t0

(* The serve workloads run on both cores at once: this process on one,
   the server on the other, or both on each in turn.  For them a
   helper process, forked before the server starts, probes at the same
   moment as this one, so that the two probes cover both cores, and a
   sample is their mean.  In six-seed trials on serve-wire this
   narrowed the range of scaled round times from 7.6% to 4.4% of their
   median.  The helper waits on a pipe between probes and exits when
   this process closes it. *)
type helper = { pid : int; req : Unix.file_descr; rep : Unix.file_descr }

let helper = ref None

let stop_helper () =
  match !helper with
  | None -> ()
  | Some h ->
    helper := None;
    Unix.close h.req;
    Unix.close h.rep;
    (try ignore (Unix.waitpid [] h.pid) with Unix.Unix_error _ -> ())

let start_helper () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    (* exit without this process's at_exit handlers *)
    Unix.close req_w;
    Unix.close rep_r;
    let b = Bytes.create 8 in
    let rec serve () =
      if Unix.read req_r b 0 1 = 0 then Unix._exit 0;
      Bytes.set_int64_le b 0 (Int64.of_int (probe ()));
      ignore (Unix.write rep_w b 0 8);
      serve ()
    in
    (try serve () with _ -> Unix._exit 1)
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    helper := Some { pid; req = req_w; rep = rep_r };
    at_exit stop_helper

(* One sample of the host's speed, in probe ns: this process's probe,
   or with a helper the mean of its probe and this one's. *)
let sample () =
  match !helper with
  | None -> probe ()
  | Some h ->
    ignore (Unix.write_substring h.req "p" 0 1);
    let own = probe () in
    let b = Bytes.create 8 in
    let rec fill off =
      if off < 8 then fill (off + Unix.read h.rep b off (8 - off))
    in
    fill 0;
    (own + Int64.to_int (Bytes.get_int64_le b 0)) / 2

(* The probe's median between score-balance rounds on a 2-vCPU VM
   (Xeon, OCaml 5.1.1) in the fastest stretch seen: reported times are
   what that host takes when nothing else slows it. *)
let reference_ns = 45_000.0

(* The factor that turns times measured while [samples] were taken
   into reference times. *)
let factor samples =
  let m = Summary.median (Array.map float_of_int samples) in
  if Float.is_finite m && m > 0.0 then reference_ns /. m else 1.0

(* The factor for a one-off interval: 25 samples right before it. *)
let factor_now () = factor (Array.init 25 (fun _ -> sample ()))
