(** Adaptive rule quarantine: per-rule circuit breakers fed by verify
    rollbacks.

    The verify gate ({!Verify.gate}) already bisects a semantic divergence
    down to the transform that caused it and rolls that transform back.
    Quarantine closes the loop {e across} requests: a rule (attribution
    name [phase ^ "." ^ kind], e.g. ["recover.substitute"] or
    ["engine.finalize"]) rolled back at least K times inside a sliding
    window trips its breaker {e open} — subsequent requests skip the rule
    up front (counted in [quarantine.skipped]) instead of paying transform
    plus verify plus bisection plus rollback every time.  After a cooldown
    the breaker goes {e half-open}: exactly one request re-admits the rule
    as a probe; a clean verify closes the breaker (the rule earns its way
    back), another rollback re-opens it with a doubled cooldown.

    The pipeline asks in one place: [Editlog.admits], which every stage
    calls for each edit it proposes, and [Editlog.admits_finalize] for
    rename + reformat.  A skipped rule's edits are never applied, so the
    request's journal holds none of them.

    This is the adaptive counterpart of {!Blocklist}: a blocklist encodes
    {e static} distrust decided offline, quarantine earns and loses trust
    {e online} from observed rollbacks, and converges back to full rule
    coverage when the offending input pattern stops arriving.

    Scope: decisions are per-request-stable (the verify gate reruns the
    engine; a breaker flipping mid-request would make reruns diverge for
    reasons unrelated to the suppression under test), kept in domain-local
    state between {!begin_request} and {!end_request}.  The registry itself
    is process-global and thread-safe.  Disabled (the default) every
    [admits] answers [true] and nothing is recorded — batch runs keep their
    jobs-count-independent byte-identity; the serve daemon enables it
    unless started with [--no-quarantine].

    Metrics: counters [quarantine.trips], [quarantine.skipped],
    [quarantine.probes], [quarantine.readmitted]; gauge
    [quarantine.open_rules]. *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed"], ["open"], ["half-open"]. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val configure : ?k:int -> ?window_s:float -> ?cooldown_s:float -> unit -> unit
(** [k] rollbacks (default 3) within [window_s] seconds (default 300) trip
    the breaker; the first open lasts [cooldown_s] seconds (default 30),
    doubling on every failed half-open probe. *)

val begin_request : unit -> unit
(** Open a request scope on this domain: admission decisions made during
    the request are cached for its duration.  No-op when disabled. *)

val admits : phase:string -> kind:string -> bool
(** Should the rule [phase ^ "." ^ kind] run?  [true] when disabled, when
    outside a request scope, or when the breaker is closed; a half-open
    breaker admits exactly one probing request.  The first answer for a
    rule is cached for the rest of the request. *)

val end_request : rolled_rules:string list -> unit
(** Close the request scope with the verify verdict: [rolled_rules] are
    the attribution names of transforms the gate rolled back.  Each one is
    recorded (possibly tripping its breaker, or failing its probe); probed
    rules that were {e not} rolled back close their breaker. *)

val abort_request : unit -> unit
(** Drop the request scope without a verdict (request died before verify);
    probe slots are released by the next admission. *)

val snapshot : unit -> (string * string) list
(** Non-closed breakers as [(rule, state_name)] pairs, sorted — for the
    [--summary] line, the daemon [metrics] op and the scrape endpoint. *)

val trips : string -> int
(** Lifetime trip count for a rule (test/bench hook). *)

val reset : unit -> unit
(** Forget every breaker and any request scope on this domain (tests). *)
