(** Adapters wiring un-instrumentable layers into {!Metrics}.

    {!Prelude.Parmap} sits below this library in the dependency order,
    so it exposes a neutral [observe] hook instead of recording metrics
    itself; the wrappers here connect that hook to a registry.

    Metrics recorded per map call: counter [parmap.maps], counter
    [parmap.tasks], gauge [parmap.last_domains], histogram
    [parmap.tasks_per_domain], histogram [parmap.idle_tail_s] (how long
    each domain sat idle waiting for the slowest one — the utilisation
    loss of the round-robin partition).

    {!jobs} is the experiment battery's runner on top of {!parmap_map}:
    named deterministic jobs, typed results in input order, and a
    failure that names its family and job. *)

val parmap_map :
  ?metrics:Metrics.t -> ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!Prelude.Parmap.map}, recording utilisation into the given registry
    (or the ambient one; plain un-instrumented map when neither is
    set). *)

val parmap_mapi :
  ?metrics:Metrics.t -> ?domains:int -> (int -> 'a -> 'b) -> 'a list ->
  'b list
(** Indexed variant. *)

exception Job_failed of { family : string; job : string; exn : exn }
(** A job of {!jobs} raised [exn]; re-raised with the backtrace captured
    at the job's own raise point.  Printed as
    ["job FAMILY/JOB raised EXN"]. *)

val jobs :
  ?metrics:Metrics.t -> ?domains:int -> family:string ->
  (string * (unit -> 'a)) list -> 'a list
(** [jobs ~family named] runs each named job through {!parmap_map} and
    returns the results in input order — byte-identical output at any
    domain count.  Every job is a deterministic computation, so a retry
    could not help: the first job (in input order) that raises fails
    the whole batch with {!Job_failed}.  Worker domains record
    backtraces whenever the calling domain does. *)
