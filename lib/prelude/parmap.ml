let max_domains = 128

let recommended_domains () =
  min 8 (max 1 (Domain.recommended_domain_count () - 1))

type domain_stat = {
  domain : int;
  tasks : int;
  finished_at : float;
}

type 'b cell = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let no_clock () = 0.0

let mapi ?domains ?(clock = no_clock) ?observe f xs =
  let domains =
    match domains with Some d -> max 1 d | None -> recommended_domains ()
  in
  let items = Array.of_list xs in
  let n = Array.length items in
  let report stats =
    match observe with None -> () | Some obs -> obs stats
  in
  if n = 0 then begin
    report [];
    []
  end
  else if domains = 1 || n <= 1 then begin
    let r = List.mapi f xs in
    report [ { domain = 0; tasks = n; finished_at = clock () } ];
    r
  end
  else begin
    let results = Array.make n Pending in
    let workers = min domains n in
    let finished = Array.make workers 0.0 in
    (* round-robin partition: task i goes to domain (i mod workers);
       tasks are independent simulations of comparable cost, so the
       interleaved split balances well without a work queue *)
    let run_worker w () =
      let i = ref w in
      while !i < n do
        (results.(!i) <-
           (match f !i items.(!i) with
            | v -> Done v
            | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
        i := !i + workers
      done;
      finished.(w) <- clock ()
    in
    let spawned =
      List.init (workers - 1) (fun w -> Domain.spawn (run_worker (w + 1)))
    in
    run_worker 0 ();
    List.iter Domain.join spawned;
    report
      (List.init workers (fun w ->
           {
             domain = w;
             tasks = (n - w + workers - 1) / workers;
             finished_at = finished.(w);
           }));
    Array.to_list
      (Array.map
         (function
           | Done v -> v
           | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
           | Pending -> assert false)
         results)
  end

let map ?domains ?clock ?observe f xs =
  mapi ?domains ?clock ?observe (fun _ x -> f x) xs
