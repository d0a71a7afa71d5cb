(* Distributed scheduling: the local strategies and their price.

   Global strategies assume one coordinator that sees every request.  In
   a real distributed server the clients and disks exchange messages
   under bandwidth limits instead — the paper's model gives every
   resource a mailbox of d messages per communication round, drops the
   overflow by latest-deadline-first, and charges the protocols by
   communication rounds.

   This example runs A_local_fix (2 communication rounds, 2-competitive)
   and A_local_eager (9 communication rounds, 5/3-competitive) on the
   same workloads as the global A_eager, showing what the missing
   coordination costs, and demonstrates the mailbox overflow on the
   Theorem 3.7 worst case.

     dune exec examples/distributed_server.exe *)

module Rng = Prelude.Rng
module Local = Localstrat.Local

let () =
  (* A mid-sized server under slight overload. *)
  let rng = Rng.create ~seed:2024 in
  let inst =
    Adversary.Random_workload.make ~rng ~n:10 ~d:4 ~rounds:300 ~load:1.15 ()
  in
  let opt = Offline.Opt.value inst in
  let table =
    Prelude.Texttable.create
      ~title:
        (Printf.sprintf
           "random workload: n=10 d=4 load=1.15, %d requests, optimum %d"
           (Sched.Instance.n_requests inst)
           opt)
      ~header:
        [ "strategy"; "accepted"; "ratio"; "comm rounds/round (max)";
          "messages"; "bounced" ]
      ()
  in
  let row name factory stats_opt =
    let o = Sched.Engine.run inst factory in
    let comm, msgs, bounced =
      match stats_opt with
      | None -> ("-", "-", "-")
      | Some stats ->
        let s : Local.stats = stats () in
        ( string_of_int s.comm_rounds_max,
          string_of_int s.messages,
          string_of_int s.bounced )
    in
    Prelude.Texttable.add_row table
      [
        name;
        string_of_int o.served;
        Prelude.Texttable.cell_ratio
          (Analysis.Slo.ratio_of ~opt ~served:o.served);
        comm;
        msgs;
        bounced;
      ]
  in
  row "A_eager (global)" (Strategies.Global.eager ()) None;
  let fix_factory, fix_stats = Local.fix_with_stats () in
  row "A_local_fix" fix_factory (Some fix_stats);
  let eager_factory, eager_stats = Local.eager_with_stats () in
  row "A_local_eager" eager_factory (Some eager_stats);
  Prelude.Texttable.print table;
  print_newline ();

  (* The Theorem 3.7 worst case: mailbox overflow in action.  R3's 2d
     messages to S1 exceed the capacity-d mailbox; the adversarial
     tie-break delivers R1's instead, and R3's second try hits the
     already-full S3. *)
  let d = 4 and intervals = 8 in
  let sc, priority = Adversary.Thm37.make ~d ~intervals in
  let factory, stats = Local.fix_with_stats ~priority () in
  let o = Sched.Engine.run sc.instance factory in
  let s = stats () in
  let opt = Offline.Opt.value sc.instance in
  Printf.printf
    "Theorem 3.7 adversary (d=%d, %d intervals) against A_local_fix:\n" d
    intervals;
  Printf.printf "  accepted %d of %d; optimum %d; ratio %.4f (paper: 2)\n"
    o.served
    (Sched.Instance.n_requests sc.instance)
    opt
    (Analysis.Slo.ratio_of ~opt ~served:o.served);
  Printf.printf
    "  %d messages sent, %d bounced by the capacity-%d mailboxes, %d \
     communication rounds per scheduling round\n"
    s.messages s.bounced d s.comm_rounds_max;
  (* A_local_eager rescues the same workload: its phase-3 swaps re-home
     the requests occupying R3's resources. *)
  let factory, stats = Local.eager_with_stats ~priority () in
  let o = Sched.Engine.run sc.instance factory in
  let s = stats () in
  Printf.printf
    "  A_local_eager on the same input: accepted %d (ratio %.4f) using %d \
     communication rounds per scheduling round\n"
    o.served
    (Analysis.Slo.ratio_of ~opt ~served:o.served)
    s.comm_rounds_max
