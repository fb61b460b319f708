(** Deobfuscation as a service: a hardened long-running daemon over a Unix
    or TCP socket speaking NDJSON — one JSON request object per line,
    exactly one JSON response line per request line.  Responses are
    matched by [id], {e not} by order: control ops are answered inline
    while deobfuscation requests queue, and with [jobs > 1] requests
    complete as workers finish them.

    {2 Protocol}

    Request fields (one JSON object per line, read by {!Jsonl.parse}:
    whitespace between tokens, every escape, [\uXXXX] as UTF-8):
    {ul
    {- [op] — ["deobfuscate"] (the default when absent), ["health"],
       ["metrics"], or ["shutdown"];}
    {- [id] — echoed back verbatim (string or integer); defaults to a
       server-assigned sequence number;}
    {- [script] — the source text.  There is no [path] field: the daemon
       reads no file a request names (a request carrying only [path] is
       [bad-request]);}
    {- [timeout_s] — per-request budget, capped at 300 s;}
    {- [verify] — override the server's semantic-gate default;}
    {- [trace] — [true] inlines the request's span events as a [trace]
       array in the response (its newest 4096 events, observation-only).}}

    Responses: [{"id":…, "status":"ok"|"degraded", "trace_id":…,
    "output":…, "report":{…}}] with the same per-file report object as
    batch mode
    (flattened to one line); [{"id":…, "status":"overloaded",
    "retry_after_ms":…}] when admission control sheds the request;
    [{"id":…, "status":"error", "kind":…, "detail":…}] for anything else —
    malformed requests, contained faults.  The listener parses each line
    once: a line that is not a JSON object, or a deobfuscate request
    without a [script] string, is answered [bad-request] at once and
    takes no queue slot.  Every request line is answered by exactly one
    of these, except a line longer than 8 MiB, terminated or not: it is
    answered with a ["too-large"] error and the connection is closed, so
    a flood of bytes cannot grow memory.  Each byte read is scanned for a
    newline once ({!Jsonl.Reader}).

    {2 Hardening}

    Worker domains ({!Pscommon.Pool.Service}) run each request through
    {!Batch.run_source} — one guarded engine run and the {!Verify} gate,
    as for a batch file — under a {!Pscommon.Guard} ambient deadline that
    starts at {e admission} and is the request's only clock, so queue
    time counts against the request's budget and drain time is bounded.  Any failure is a structured error response; workers recycle,
    the daemon survives.  All workers share one warm bounded piece cache
    ({!Recover.Cache}) for the life of the process — a piece recovered for
    one request is a hit for every later one, whichever worker runs it.
    The ["metrics"] op reports the cache's occupancy and hit rate alongside
    the self-healing state ([selfheal]: recycle/wedge/respawn counters,
    quarantined rules) and the registry snapshot.

    {2 Self-healing}

    A supervisor domain watches each worker's current request: a worker
    still busy past its request's deadline plus [grace_s] is declared
    {e wedged} —
    its client gets a structured [kind:"wedged"] error, the domain is
    abandoned and a fresh one installed, with exponential backoff on
    respawn failures.  {!Quarantine} circuit-breaks
    transforms the semantic gate keeps rolling back.

    Chaos probe sites [serve.accept], [serve.read], [serve.write] and
    [serve.queue] inject socket-edge faults: accept/read faults delay (the
    kernel backlog and unconsumed bytes retry next select round), write
    faults are counted and retried, queue faults cost that one request an
    error response.  [serve.wedge] spins a worker in a bounded
    checkpoint-free loop (exercising the watchdog); [serve.respawn] fails
    the replacement spawn (exercising the backoff). *)

type bind = Unix_sock of string | Tcp of string * int

val parse_bind : string -> (bind, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (treated as a Unix
    socket). *)

val bind_to_string : bind -> string

val sockaddr : bind -> Unix.socket_domain * Unix.sockaddr
(** The socket domain and address of a bind, for the daemon's listener and
    its client alike.  A TCP host is a numeric address or else a name
    resolved with [gethostbyname]; raises [Not_found] when it resolves to
    nothing. *)

type config = {
  bind : bind;
  jobs : int;  (** worker domains *)
  queue_cap : int;  (** admission-control bound; beyond it requests shed *)
  default_timeout_s : float;
      (** per-request budget when unspecified ({!Batch.default_timeout_s}) *)
  options : Engine.options;
  verify : bool;  (** default semantic-gate setting; per-request overridable *)
  cache_cap : int;  (** process-shared cache capacity, per tier *)
  trace_dir : string option;
      (** write per-request traces here ([req-<seq>.trace.jsonl]) *)
  trace_sample : int option;
      (** with [trace_dir]: serialize only every n-th request's trace;
          the rest run untraced *)
  metrics_out : string option;
      (** write a final metrics snapshot here on drain *)
  metrics_addr : bind option;
      (** serve a Prometheus scrape endpoint ([GET /metrics]) on this
          address, on its own listener domain — scrapes never contend
          with request admission.  Renders a fresh registry snapshot
          ({!Pscommon.Telemetry.Metrics.to_prometheus}) *)
  flight_dir : string option;
      (** enable the {!Pscommon.Telemetry.Flight} recorder and dump its
          per-domain ring here on worker recycle, blown deadline, or
          chaos queue fault *)
  grace_s : float;
      (** watchdog patience: a worker still busy past its request's
          deadline plus this grace is declared wedged — the request is
          answered with a structured [kind:"wedged"] error and the worker
          domain abandoned and replaced ({!Pscommon.Pool.Service}
          supervision) *)
  quarantine : bool;
      (** adaptive rule quarantine ({!Quarantine}): transforms repeatedly
          rolled back by the semantic gate are skipped up front until a
          half-open probe re-admits them.  On by default in the daemon;
          [--no-quarantine] restores the always-run behaviour *)
}

val default_config : bind -> config
(** 1 job, queue 64, 30 s default budget, verify off, cache 2048
    (memory-only), no tracing,
    no scrape endpoint, flight recorder off, 2 s wedge grace, quarantine
    on. *)

type server
(** A daemon started in a background domain by {!start}. *)

val start : config -> (server, string) result
(** Bind the socket (errors reported synchronously — address in use,
    bad path) and start serving in a spawned domain. *)

val stop : server -> unit
(** Initiate graceful drain: stop accepting and reading, finish or
    deadline-out queued work, flush telemetry.  Returns immediately;
    {!wait} observes completion. *)

val wait : server -> int
(** Join the serve loop and return its exit code (0 after a graceful
    drain). *)

val run : config -> int
(** Serve in the calling domain until SIGTERM/SIGINT (handlers installed
    here) or a ["shutdown"] request initiates drain.  Returns the process
    exit code: 0 after a graceful drain, 1 when the socket cannot be bound
    or the loop crashed. *)
