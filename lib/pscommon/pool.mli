(** Fixed-size domain pool: worker domains draining a bounded queue
    ({!Service}), and a parallel map over it with deterministic,
    input-ordered results.

    Built for batch deobfuscation and the daemon: each work item is
    independent, already totalised by {!Guard.protect}, and a map item's
    result slot is private to the item; results land in a pre-sized array,
    so the output order is the input order regardless of scheduling. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware's parallelism. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item on an unsupervised
    {!Service} of [min jobs (List.length items)] worker domains, the
    calling domain waiting for the drain.  [jobs <= 1] runs sequentially in
    the calling domain, spawning nothing.  Results are in input order.  If
    [f] raises, the exception with the lowest input index is re-raised
    after all workers have drained (callers in this codebase pass total
    functions, so this is a backstop, not a protocol).

    Parallel runs feed the {!Service} metrics: histograms
    [pool.queue_wait_ms] (submit → claim) and [pool.run_ms] per item,
    gauges [pool.jobs] and [pool.service.depth]. *)

(** Bounded-queue worker pool.  A fixed set of worker domains drains a
    bounded queue until {!Service.shutdown} — for the life of the process
    in the daemon, for one list in {!map}.  The bound is the
    admission-control contract: {!Service.submit} never blocks and never
    grows memory, it simply refuses when full so the caller can shed the
    request explicitly. *)
module Service : sig
  type 'a t

  (** Supervision contract for {!create}'s [?supervise].  OCaml domains
      cannot be killed, so "preemption" is cooperative at the edges: the
      supervisor {e answers the victim} ([sv_on_wedged], e.g. send the
      structured [wedged] error), abandons the wedged domain (it exits when
      its handler eventually returns and its loop sees the abandoned flag),
      and installs a fresh domain in the slot. *)
  type 'a supervision = {
    sv_grace_s : float;
        (** patience past the item's deadline before declaring a wedge — a
            slow-but-polling worker raises its own cooperative timeout at
            the next checkpoint, so only a frozen one survives this long *)
    sv_deadline_of : 'a -> float;
        (** the item's admission deadline (epoch seconds; [infinity] never
            wedges) *)
    sv_describe : 'a -> string;  (** for logs and flight-recorder dumps *)
    sv_on_wedged : 'a -> unit;
        (** answer the victim; runs on the supervisor domain, must not
            block indefinitely *)
  }

  val respawn_backoff : int -> float
  (** [respawn_backoff n] — delay in seconds after [n] consecutive respawn
      failures: [0.05 * 2^(n-1)] capped at 5s, [0] for [n <= 0].  Exposed
      (pure) so the monotone crash-loop progression is testable. *)

  val create :
    jobs:int -> queue_cap:int -> ?supervise:'a supervision -> ('a -> unit) -> 'a t
  (** [create ~jobs ~queue_cap handler] spawns [max 1 jobs] worker domains
      (the caller is {e not} a worker — it keeps its own loop, e.g. the
      accept loop) that each pop items and run [handler].  A handler that
      raises costs that one item (logged, counted in
      [pool.service.recycled], and — when the {!Telemetry.Flight} recorder
      is enabled — dumped as a flight-recorder JSONL black box) — the
      worker recycles and keeps serving.

      [supervise] additionally spawns a watchdog domain that scans each
      worker's current item and its deadline: a worker still busy past its
      item's deadline plus [sv_grace_s] is declared wedged — counted in
      [pool.service.wedged], dumped to the flight recorder, its request
      answered via [sv_on_wedged], its domain abandoned and its slot
      respawned.  Respawns (counted in [pool.service.respawns]) pass
      through the ["serve.respawn"] chaos site; failures (counted in
      [pool.service.respawn_failures]) back off exponentially per
      {!respawn_backoff}.  Abandoned domains that eventually finish are
      reaped; [pool.service.zombies] gauges those still running.

      Queue wait and run time feed the shared [pool.queue_wait_ms] /
      [pool.run_ms] histograms; [pool.service.depth] gauges the queue. *)

  val submit : 'a t -> 'a -> bool
  (** Enqueue without blocking.  [false] means shed: the queue is at
      [queue_cap] or the pool is shutting down, and the item was {e not}
      accepted. *)

  val depth : 'a t -> int
  (** Items queued and not yet claimed by a worker. *)

  val inflight : 'a t -> int
  (** Items currently being handled by workers (wedged handlers included
      until their domain actually exits). *)

  val shutdown : 'a t -> unit
  (** Graceful drain: stop accepting, let workers finish every item already
      queued, then join them.  Under supervision the watchdog keeps
      scanning during the drain (a wedge mid-drain is still answered and
      replaced), joins of wedged domains are bounded, and a domain that
      never exits is leaked with a warning instead of hanging the drain. *)
end
