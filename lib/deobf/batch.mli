(** Crash-isolated batch processing — the shape of the paper's Table II
    corpus runs and of any future service: one hanging or crashing sample is
    contained by its own deadline and recorded in a per-file JSON failure
    report, and the batch continues.  With [jobs > 1] the files run in
    parallel on a fixed-size domain pool ({!Pscommon.Pool}); outcomes stay
    in input order and outputs are byte-identical to a sequential run. *)

type outcome = {
  file : string;  (** input path *)
  output_file : string option;  (** where the recovered text was written *)
  wall_ms : float;
  phase_ms : (string * float) list;
      (** per-phase wall milliseconds from {!Engine.run_guarded} *)
  iterations : int;
  changed : bool;
  failures : Engine.failure_site list;
      (** empty when the file ran clean; otherwise the phases the engine
          skipped, in phase order *)
  stats : Recover.stats;
  retries : int;
      (** always 0: files are never retried.  Kept only for readers built
          against the old record; to be deleted. *)
  regions_total : int;  (** {!Engine.guarded} partial-parse region count *)
  regions_recovered : int;
  verdict : Verify.verdict option;
      (** semantic-equivalence verdict; [None] when verification was off *)
  resumed : bool;
      (** answered from the resume journal — the previous run's output was
          kept and the pipeline did not run again *)
}

type summary = {
  total : int;
  clean : int;  (** files with no contained failures *)
  degraded : int;  (** files with at least one contained failure *)
  wall_ms : float;
  jobs_requested : int;  (** the [jobs] the caller asked for *)
  jobs_effective : int;
      (** after clamping to {!Pscommon.Pool.recommended_jobs} — the pool
          size the run actually used *)
  cache_stats : Recover.Cache.stats option;
      (** end-of-run snapshot of the shared piece cache ([None] only for
          summaries built outside {!run_files}) *)
  outcomes : outcome list;  (** in processing order *)
}

type journal
(** Handle on the [manifest.jsonl] resume journal of one batch run; created
    internally by {!run_files} when there is an output directory. *)

val default_timeout_s : float  (** 30 s *)

val run_source :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?cache:Recover.Cache.t ->
  ?verify:bool ->
  name:string ->
  string ->
  outcome * string
(** [run_source ~name src] is the shared request core between batch files
    and serve-daemon requests: run {!Engine.run_guarded_parsed} once on the
    source text under one [timeout_s] deadline ({!default_timeout_s}),
    never later than an enclosing one, optionally run the
    {!Verify} gate on its result, and return the outcome (with [file = name], no output file, [wall_ms] covering just
    the pipeline) alongside the recovered text.  [cache] supplies a
    caller-owned piece cache, so a long-running service keeps recovered
    pieces warm across requests; without it each call starts cold.  Never
    raises on malicious input — every degradation is a structured failure
    site in the outcome. *)

val process_file :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?cache:Recover.Cache.t ->
  ?out_dir:string ->
  ?trace_dir:string ->
  ?verify:bool ->
  ?journal:journal ->
  string ->
  outcome
(** Run one file through {!run_source} under its own deadline.  Never
    raises:
    unreadable files and crashing samples come back as an outcome with
    failures, and anything escaping the per-file pipeline (including
    injected {!Pscommon.Chaos} pool faults) is contained by a backstop
    guard as a ["task"] failure site.  Under chaos injection the file is
    processed in a {!Pscommon.Chaos.with_scope} keyed by its basename, so
    faults replay identically across [--jobs] levels and traced/untraced
    runs.  With [out_dir], the recovered text is written
    to [out_dir/<basename>] and, when the file degraded, a failure report
    to [out_dir/<basename>.failures.json].  A failed output write is
    recorded as a ["write"] failure site.  With [trace_dir], the file runs
    under an ambient {!Pscommon.Telemetry} trace and the event stream is
    written to [trace_dir/<basename>.trace.jsonl] — one stream per input,
    even across pool domains.  Without [trace_dir] the file runs
    untraced.

    With [verify] (default off here, on in {!run_files}), the {!Verify}
    gate executes original and output in the sandbox after the engine run
    and the outcome carries the verdict; a divergence is rolled back by
    re-running the engine with the offending edits suppressed.
    With [journal], the file is skipped when a matching clean ["done"]
    entry exists (resume), and ["started"]/["done"] entries are appended
    as it is processed. *)

val ensure_dir : string -> unit
(** [mkdir -p].  @raise Failure when a component is not a directory. *)

val run_files :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?out_dir:string ->
  ?trace_dir:string ->
  ?trace_sample:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?resume:bool ->
  string list ->
  summary
(** Process the given files, [jobs] at a time (default 1, sequential;
    clamped to {!Pscommon.Pool.recommended_jobs} — both the requested and
    effective levels are recorded in the summary).
    [out_dir] (and [trace_dir]) are created with mkdir-p semantics; if one
    cannot be created (e.g. the path names a regular file) every outcome
    carries a structured ["write"] failure instead of the batch crashing.
    The process-global {!Pscommon.Telemetry.Metrics} registry is reset at
    the start of the call, so a snapshot taken afterwards (and the
    [metrics.json] rollup from {!run_dir}) covers exactly this run.

    All files share one {!Recover.Cache} across every pool domain, so a
    decode piece recovered in one file is a cache hit in the next.  The
    cache lives for the call: nothing is carried over to a later run.

    [verify] (default on) runs the {!Verify} semantic gate on every file.
    With an [out_dir], the run keeps an append-only [manifest.jsonl]
    journal there (truncated at the start of a fresh run); [resume]
    (default off) loads it first and skips every file whose clean ["done"]
    entry matches the current input digest and options fingerprint and
    whose output file still exists — a restarted batch converges to the
    same output bytes without redoing finished work.

    [trace_sample n] (with a [trace_dir], [n > 1]) serializes only every
    n-th file's trace, by input index (0, n, 2n, …), so the selection is
    deterministic across [jobs] levels; the other files run untraced. *)

val trace_sampled : int option -> int -> bool
(** [trace_sampled trace_sample i]: whether input [i] (a batch file's
    index, a daemon request's sequence number) is traced under
    [trace_sample]: every input when it is [None] or at most 1, else every
    n-th one — 0, n, 2n, … *)

val run_dir :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?out_dir:string ->
  ?trace_dir:string ->
  ?trace_sample:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?resume:bool ->
  string ->
  summary
(** Process every regular file in a directory, in sorted order.  With
    [out_dir], also writes [out_dir/batch_report.json] and the run-level
    observability rollup [out_dir/metrics.json]. *)

val diverged_count : summary -> int
(** Files whose verdict is {!Verify.Diverged} — outputs kept but flagged
    untrusted; callers should treat any nonzero count as a failure. *)

val outcome_to_json : outcome -> string
val summary_to_json : summary -> string

val metrics_json : summary -> string
(** The run-level rollup written as [metrics.json]: contained-failure
    counts keyed ["phase/kind"], the summed per-file [stats] (rendered as
    in the outcome JSON), the {!cache_json} block, the verify reference
    runs' payload reuse ([payloads]: [lookups] in a request's
    decoded-payload table at Invoke-Expression sites, payloads [reused],
    and [reuse_rate], reused over lookups), the {!dynamic_json} and
    {!selfheal_json} blocks, per-phase wall-time totals, the partial-parse
    [regions] totals, and the current {!Pscommon.Telemetry.Metrics}
    snapshot (counters, gauges and latency histograms aggregated across
    all pool domains).  Meaningful right after {!run_files}/{!run_dir},
    which reset the registry at the start of the run. *)

(** {2 Shared rollup blocks}

    One renderer per block, used by [metrics.json], the serve [metrics]
    op and the CLI's [--summary], so the three surfaces read the same
    numbers. *)

val total_stats : outcome list -> Recover.stats
(** The outcomes' per-file stats, summed. *)

val phase_totals : outcome list -> (string * float) list
(** Per-phase wall-time totals over the outcomes, sorted by phase. *)

val phase_ms_to_json : (string * float) list -> string
(** [{"phase": ms, …}], milliseconds to one decimal, in list order. *)

val cache_json : Recover.Cache.stats -> string
(** [{"entries", "lookups", "hits", "hit_rate", "evictions"}] of one
    piece cache; [hit_rate] is hits over lookups (0 with no lookups). *)

val dynamic_json : unit -> string
(** The dynamic-recovery funnel [{"attempted", "recovered", "rolled_back",
    "unverifiable"}] from the metrics registry: process totals, the
    verify gate's re-runs included. *)

val selfheal_json : unit -> string
(** The self-healing state: worker recycle/wedge/respawn counters from the
    registry and the quarantine's rule states. *)
