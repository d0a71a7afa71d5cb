(** Parallel map over OCaml 5 domains.

    The experiment harness runs many independent simulations (seeds ×
    loads × strategies); this module fans them out over domains with a
    round-robin partition — no dependencies between tasks, deterministic
    result order, exceptions re-raised in the caller with their original
    backtrace.

    Tasks must not share mutable state (every simulation in this library
    owns its instance, strategy state and RNG; the one shared cache, the
    Zipf CDF table, is mutex-protected). *)

val max_domains : int
(** [128]: OCaml 5.1's [Max_domains] on 64-bit ([caml/domain.h]), the
    most domains one process may run at once, the calling one included.
    Callers that take a domain count from the user check it against
    this before anything spawns. *)

val recommended_domains : unit -> int
(** [max 1 (cpu count - 1)], capped at 8: leave a core for the runtime
    and avoid oversubscription on big machines. *)

type domain_stat = {
  domain : int;        (** worker index, [0 .. workers-1] *)
  tasks : int;         (** tasks this worker executed *)
  finished_at : float; (** [clock ()] when the worker went idle *)
}
(** Per-domain utilisation sample handed to [observe]; the spread of
    [finished_at] values is the idle tail the last-finishing domain
    imposes on the others.  [Obs.Instrument.parmap] turns these into
    metrics. *)

val map :
  ?domains:int ->
  ?clock:(unit -> float) ->
  ?observe:(domain_stat list -> unit) ->
  ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] computed on up to [domains]
    domains (default {!recommended_domains}).  Order is preserved.  If
    any task raises, the first exception (in input order) is re-raised
    after all domains have joined, with the backtrace captured at the
    original raise point.  With [domains = 1] or a short input list this
    degrades to plain [List.map] with no domain spawns.
    @raise Invalid_argument if [domains] is outside [1 .. max_domains],
    before anything runs or spawns.

    [observe] (default: none) receives one {!domain_stat} per worker
    after all have joined, stamped with [clock] (default: a constant 0,
    so pass a real clock — e.g. [Obs.Span.now] — when utilisation
    matters).  [clock] runs inside worker domains and must be
    domain-safe. *)

val mapi :
  ?domains:int ->
  ?clock:(unit -> float) ->
  ?observe:(domain_stat list -> unit) ->
  (int -> 'a -> 'b) -> 'a list -> 'b list
(** Indexed variant. *)
