(** Observability substrate: span tracer, metrics registry, leveled logger.

    Three independent facilities behind one zero-dependency module:
    {ul
    {- a {e span/event tracer} — nestable spans and point events with
       monotonic (non-decreasing) millisecond timestamps and typed
       attributes.  Each domain has one event ring, allocated only when a
       request asks for its trace or the flight recorder is on, reset at
       the start of every request ({!with_request_id}) and installed as
       the domain's {e ambient} trace ([Domain.DLS]), so instrumented code
       anywhere below records into it without threading a handle and
       parallel batch workers never share a buffer.  Every span begin,
       span end and event is recorded into it once; the trace file
       ({!to_jsonl}), the serve response's inline trace
       ({!events_to_json_array}) and the flight dump ({!Flight.dump}) are
       drains of that ring, rendered line by line the same way;}
    {- a {e metrics registry} — process-global named counters, gauges and
       log-scale latency histograms, every cell an [Atomic], safe to bump
       from any pool domain concurrently and aggregated by
       {!Metrics.snapshot}.  It is the one registry: [metrics.json], the
       serve [metrics] op and the [/metrics] scrape
       ({!Metrics.to_prometheus}) each render a snapshot of it, and rates
       or quantiles over a recent window are the scraper's queries over
       the exported series;}
    {- a {e leveled logger} — [error|warn|info|debug] to stderr, silent by
       default, for the ad-hoc prints a pipeline otherwise accretes.}}

    The disabled fast path (no ambient trace installed) is one domain-local
    read plus a comparison — no allocation — so call sites stay
    unconditional even in hot loops. *)

type attr_value = S of string | I of int | F of float | B of bool
type attr = string * attr_value

(** Leveled stderr logger, silent unless {!Log.set_level} enables it. *)
module Log : sig
  type level = Error | Warn | Info | Debug

  val of_string : string -> level option
  (** ["error" | "warn"("ing") | "info" | "debug"], case-insensitive. *)

  val label : level -> string

  val set_level : level option -> unit
  (** [None] (the default) silences everything; [Some l] enables messages
      at [l] and above.  Stored in an [Atomic]: a level set before spawning
      pool workers is visible to all of them. *)

  val level : unit -> level option

  val enabled : level -> bool

  type format = Text | Json
      (** [Text] (the default): ["[level] msg"].  [Json]: one JSON object
          per line — [{"ts": epoch_s, "level": …, "domain": id, "msg": …}]
          — for log pipelines. *)

  val set_format : format -> unit
  (** Process-wide, like the level (an [Atomic]). *)

  val format : unit -> format

  val format_of_string : string -> format option
  (** ["text" | "json"("l")], case-insensitive. *)

  val log : level -> (unit -> string) -> unit

  val error : (unit -> string) -> unit
  val warn : (unit -> string) -> unit
  val info : (unit -> string) -> unit
  val debug : (unit -> string) -> unit
  (** Messages are thunks so a disabled level formats nothing.  Emission is
      mutex-serialized: concurrent domains never interleave lines. *)
end

(** {1 Trace / request identifiers}

    Correlation ids for request-scoped tracing: the daemon, the batch
    driver and a single-file run each open one request scope
    ({!with_request_id}) per request, and everything recorded in it — trace
    lines, flight dumps, response fields — carries its id.  Ids are
    observation-only: they draw from a process counter, never from anything
    output-affecting. *)

val new_trace_id : unit -> string
(** A fresh process-unique id (["nonce-counter"], hex). *)

val current_request_id : unit -> string option
(** The ambient request id of this domain, if one is installed. *)

(** {1 Traces} *)

type kind = Span_begin | Span_end | Point

type event = {
  seq : int;  (** 0-based position in the run's full event stream *)
  t_ms : float;
      (** milliseconds since trace creation; clamped so the stream is
          non-decreasing even if the wall clock steps backwards *)
  kind : kind;
  name : string;
  id : int;  (** span id ([>= 1]) for begin/end events; [0] for points *)
  parent : int;  (** id of the enclosing span, [0] at top level *)
  attrs : attr list;
}

type trace
(** A bounded event ring.  Single-domain by design: install it with
    {!with_trace} (or let {!with_request_id} install the domain's ring)
    and record through the ambient API.  When more than [capacity] events
    are pushed the ring overwrites the oldest and counts them in
    {!dropped}. *)

val create : ?capacity:int -> unit -> trace
(** Default capacity 65536 events (floor 16).  The new trace's
    {!trace_id} is the ambient request id when one is in scope, else
    freshly allocated. *)

val trace_id : trace -> string
(** The trace's correlation id, stamped on every serialized event line. *)

val reset : trace -> unit
(** Rewind the trace to empty for reuse, keeping the allocated ring: the
    clock restarts, sequence numbers and span ids restart at 0, the
    open-span stack is cleared, and the {!trace_id} is taken afresh from
    the ambient request id. *)

val uninstall : unit -> unit
(** Clear the current domain's ambient trace. *)

val with_trace : trace -> (unit -> 'a) -> 'a
(** Install [trace] as the current domain's ambient trace for the duration
    of the call (exception-safe), restoring the previous one afterwards. *)

val current_trace : unit -> trace option
(** The current domain's ambient trace. *)

val with_request_id : ?record:bool -> string -> (unit -> 'a) -> 'a
(** Run one request: [rid] is this domain's ambient request id for the
    duration of the call (exception-safe, restores the previous id).  When
    [record] is set (the caller wants the request's trace) or the flight
    recorder is on, the domain's one event ring — allocated by the first
    such request on the domain, 65536 events — is reset, adopts [rid] as
    its {!trace_id}, and is installed as the ambient trace for the call;
    read it back with {!current_trace}.  Otherwise nothing records and no
    ring is allocated.  A nested call starts a new request on the same
    ring. *)

val active : unit -> bool
(** Whether an ambient trace is installed in this domain — the guard hot
    call sites use before building attribute lists. *)

val span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [span name f] wraps [f] in a begin/end event pair nested under the
    innermost open span.  With no ambient trace this is [f ()]. *)

val span_begin : ?attrs:attr list -> string -> int
(** Imperative variant for call sites that attach result attributes to the
    end event: returns the span id, or [0] when no trace is installed. *)

val span_end : ?attrs:attr list -> int -> unit
(** Close the span by id ([0] is a no-op).  Spans opened after it and still
    open are auto-closed first, so a non-local exit cannot corrupt
    nesting. *)

val event : ?attrs:attr list -> string -> unit
(** Record a point event under the innermost open span. *)

val events : trace -> event list
(** Buffered events, oldest first (at most [capacity]; earlier ones were
    dropped by the ring). *)

val dropped : trace -> int

val to_jsonl : trace -> string
(** The trace file: one {!event} JSON object per line, oldest first — each
    line carrying the trace's {!trace_id} alongside the span
    [id]/[parent] pair — closed by a summary line [{"kind": "summary",
    "trace_id": …, "events": total, "dropped": n}]. *)

val events_to_json_array : last:int -> trace -> string
(** The newest [last] buffered events as one single-line JSON array (no
    summary line, no trace id) — the serve protocol's inline [trace]
    response field.  Lines are rendered as in {!to_jsonl}. *)

(** {1 Flight recorder}

    A black box drained from the same per-domain ring as the trace file:
    with a sink set, every request records (see {!with_request_id}), and
    when a fault warrants forensics (worker recycled, deadline blown,
    chaos containment, diverged verdict) {!Flight.dump} writes the newest
    events as JSONL.  Disabled — the default — it costs nothing on the
    recording path and allocates no ring. *)
module Flight : sig
  val set_sink : string option -> unit
  (** [Some dir] makes every request record and directs dumps into [dir]
      (created on first dump if missing); [None] (the default)
      disables. *)

  val enabled : unit -> bool

  val dump : reason:string -> unit -> string option
  (** Write this domain's newest events — the last 512, excluding any an
      earlier dump of the same request already wrote — to the sink
      directory: a header line [{"kind": "flight", "reason", "trace_id",
      "domain", "at", "entries"}] whose trace id is the ambient request's
      (else the ring's last request's), then one line per event, oldest
      first, rendered as in {!to_jsonl}.  The ring itself keeps every
      event, so the request's trace file is complete.  Returns the path
      written; [None] when disabled or the write failed — a failing dump
      never takes the request path down. *)

  val dumps_total : unit -> int
  (** Dumps attempted since process start (monotonic, process-wide). *)
end

(** {1 Metrics} *)

(** Process-global registry of named counters, gauges and log-scale latency
    histograms.  Handles are cheap to look up (get-or-create under a mutex)
    and updates are lock-free [Atomic] operations, so pool domains bump the
    same cells concurrently; {!Metrics.snapshot} aggregates across all of
    them at join time. *)
module Metrics : sig
  type counter

  val counter : string -> counter
  (** Get or create by name. *)

  val incr : ?by:int -> counter -> unit
  val counter_value : counter -> int

  type gauge

  val gauge : string -> gauge
  val set : gauge -> int -> unit

  type histogram
  (** Log-scale (base-2) latency histogram in milliseconds: bucket bounds
      run from 1/16 ms doubling to ~37 h, plus an overflow bucket.
      Observations at a bound land in that bucket; [<= 1/16 ms] (including
      zero and negatives) land in the first. *)

  val histogram : string -> histogram
  val observe : histogram -> float -> unit

  type 'a family
  (** Handles named [prefix ^ suffix] for a small set of suffixes (rule
      kinds, phases, verdicts). *)

  val counter_family : string -> counter family
  val histogram_family : string -> histogram family

  val member : 'a family -> string -> 'a
  (** [member f suffix] is the handle {!counter} or {!histogram} gives for
      [prefix ^ suffix], looked up (and so registered) on the suffix's
      first use only. *)

  val bucket_bound : int -> float
  (** Upper bound (ms) of bucket [i]; [infinity] for the overflow bucket. *)

  val bucket_of : float -> int
  (** Index of the bucket an observation lands in. *)

  val bucket_count : int

  type histogram_snapshot = {
    hs_count : int;
    hs_sum : float;
    hs_min : float;  (** [nan] when empty *)
    hs_max : float;  (** [nan] when empty *)
    hs_buckets : (float * int) list;
        (** non-empty buckets as (upper bound ms, count), bound order; the
            overflow bucket's bound is [infinity] *)
  }

  type snapshot = {
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * int) list;
    histograms : (string * histogram_snapshot) list;
  }

  val snapshot : unit -> snapshot

  val quantile : histogram_snapshot -> float -> float
  (** [quantile hs q] ([q] in [0,1], clamped) estimates the q-th latency
      quantile as the upper bound of the log2 bucket holding the q-th
      observation ([hs_max] for the overflow bucket); [nan] when empty.
      Coarse (buckets double) but monotone — the daemon's p50/p99. *)

  val reset : unit -> unit
  (** Zero every registered value (handles stay valid) — run at the start
      of a batch so the run-level rollup covers exactly that run. *)

  val snapshot_to_json : snapshot -> string
  (** Histogram entries carry [p50_ms]/[p90_ms]/[p99_ms] (via {!quantile})
      alongside the raw log2 buckets. *)

  val to_prometheus : snapshot -> string
  (** Prometheus text exposition (format version 0.0.4): counters as
      [_total]-suffixed counters, gauges as gauges, histograms as
      cumulative [_bucket{le=…}] series with [_sum]/[_count].  Dotted
      registry names map to underscores under the [invoke_deobf_]
      prefix. *)
end

(** {1 JSON helpers} *)

val json_escape : string -> string
val json_string : string -> string
