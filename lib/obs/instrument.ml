module Parmap = Prelude.Parmap

let record_parmap m (stats : Parmap.domain_stat list) =
  Metrics.incr m "parmap.maps";
  Metrics.set m "parmap.last_domains" (float_of_int (List.length stats));
  let latest =
    List.fold_left (fun acc s -> Float.max acc s.Parmap.finished_at) 0.0 stats
  in
  List.iter
    (fun (s : Parmap.domain_stat) ->
       Metrics.incr ~by:s.tasks m "parmap.tasks";
       Metrics.observe m "parmap.tasks_per_domain" (float_of_int s.tasks);
       Metrics.observe m "parmap.idle_tail_s" (latest -. s.finished_at))
    stats

let parmap_mapi ?metrics ?domains f xs =
  match Metrics.resolve metrics with
  | None -> Parmap.mapi ?domains f xs
  | Some m ->
    Parmap.mapi ?domains ~clock:Span.now ~observe:(record_parmap m) f xs

let parmap_map ?metrics ?domains f xs =
  parmap_mapi ?metrics ?domains (fun _ x -> f x) xs

exception Job_failed of { family : string; job : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Job_failed { family; job; exn } ->
      Some
        (Printf.sprintf "job %s/%s raised %s" family job
           (Printexc.to_string exn))
    | _ -> None)

let jobs ?metrics ?domains ~family named =
  (* backtrace recording is per domain: carry the caller's setting into
     the workers, where the raise happens *)
  let record = Printexc.backtrace_status () in
  parmap_map ?metrics ?domains
    (fun (job, f) ->
       if record then Printexc.record_backtrace true;
       match f () with
       | v -> v
       | exception exn ->
         let bt = Printexc.get_raw_backtrace () in
         Printexc.raise_with_backtrace (Job_failed { family; job; exn }) bt)
    named
