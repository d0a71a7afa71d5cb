(* Quickstart: the five-minute tour of the reqsched API.

   We model a tiny data server with 3 disks, requests with two replica
   choices and a deadline of 3 rounds, schedule them online with
   A_balance, and compare against the exact offline optimum.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. Describe the workload.  A request names its arrival round, the
     resources (disks) holding a replica of its data item, and its
     deadline. *)
  let requests =
    [
      (* three clients hit disk pair (0,1) at once ... *)
      Sched.Request.make ~arrival:0 ~alternatives:[ 0; 1 ] ~deadline:3;
      Sched.Request.make ~arrival:0 ~alternatives:[ 0; 1 ] ~deadline:3;
      Sched.Request.make ~arrival:0 ~alternatives:[ 1; 0 ] ~deadline:3;
      (* ... one wants (1,2) ... *)
      Sched.Request.make ~arrival:0 ~alternatives:[ 1; 2 ] ~deadline:3;
      (* ... and a second wave lands one round later *)
      Sched.Request.make ~arrival:1 ~alternatives:[ 2; 0 ] ~deadline:3;
      Sched.Request.make ~arrival:1 ~alternatives:[ 0; 2 ] ~deadline:2;
    ]
  in
  let instance = Sched.Instance.build ~n_resources:3 ~d:3 requests in
  Format.printf "%a@." Sched.Instance.pp_summary instance;

  (* 2. Run an online strategy.  The engine reveals requests round by
     round and validates every service decision. *)
  let outcome = Sched.Engine.run instance (Strategies.Global.balance ()) in
  Format.printf "%a@." Sched.Outcome.pp_summary outcome;
  Array.iteri
    (fun id served ->
       match served with
       | Some (disk, round) ->
         Format.printf "  request %d -> disk %d at round %d@." id disk round
       | None -> Format.printf "  request %d -> failed@." id)
    outcome.served_at;

  (* 3. Compare with the exact offline optimum (a maximum matching in
     the paper's request/time-slot graph). *)
  let opt = Offline.Opt.value instance in
  Format.printf "offline optimum: %d of %d@." opt
    (Sched.Instance.n_requests instance);
  Format.printf "competitive ratio on this input: %.3f@."
    (Analysis.Slo.ratio_of ~opt ~served:outcome.served);

  (* 4. Audit the outcome: where (if anywhere) could the optimum still
     improve on the online schedule? *)
  let audit = Analysis.Audit.of_outcome outcome in
  Format.printf "augmenting-path audit: %a@." Analysis.Audit.pp audit;

  (* 5. The paper's Table 1 bounds for this deadline, for reference. *)
  Format.printf "@.Paper bounds at d = 3:@.";
  List.iter
    (fun (name, lb, ub) ->
       let cell = function
         | Some r -> Prelude.Rat.to_string r
         | None -> "-"
       in
       Format.printf "  %-14s LB %-8s UB %s@." name (cell lb) (cell ub))
    (Analysis.Bounds.table1 ~d:3)
