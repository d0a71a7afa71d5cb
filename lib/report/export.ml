let escape field =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
         if c = '"' then Buffer.add_string buf "\"\""
         else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let row fields = String.concat "," (List.map escape fields) ^ "\n"

let csv_of_table table =
  let buf = Buffer.create 512 in
  (match Prelude.Texttable.title table with
   | Some t -> Buffer.add_string buf ("# " ^ t ^ "\n")
   | None -> ());
  Buffer.add_string buf (row (Prelude.Texttable.header table));
  List.iter
    (fun r -> Buffer.add_string buf (row r))
    (Prelude.Texttable.rows table);
  Buffer.contents buf

let csv_of_outcome (o : Sched.Outcome.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (row
       [ "id"; "arrival"; "deadline"; "served"; "resource"; "round";
         "latency" ]);
  Array.iteri
    (fun id served ->
       let r = o.Sched.Outcome.instance.Sched.Instance.requests.(id) in
       let arrival = r.Sched.Request.arrival in
       let cells =
         match served with
         | Some (res, round) ->
           [
             string_of_int id;
             string_of_int arrival;
             string_of_int r.Sched.Request.deadline;
             "1";
             string_of_int res;
             string_of_int round;
             string_of_int (round - arrival);
           ]
         | None ->
           [
             string_of_int id;
             string_of_int arrival;
             string_of_int r.Sched.Request.deadline;
             "0"; ""; ""; "";
           ]
       in
       Buffer.add_string buf (row cells))
    o.Sched.Outcome.served_at;
  Buffer.contents buf

let decisions_of_outcome (o : Sched.Outcome.t) =
  let decisions = ref [] in
  Array.iteri
    (fun id served ->
       Option.iter
         (fun (res, round) -> decisions := (round, id, res) :: !decisions)
         served)
    o.Sched.Outcome.served_at;
  String.concat ""
    (List.map
       (fun (round, id, res) -> Printf.sprintf "t%d sched@%d S%d\n" round id res)
       (List.sort compare !decisions))

let write_file ~path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)
