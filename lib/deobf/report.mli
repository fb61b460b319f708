(** Structured analysis reports.

    One call bundles what an analyst pipeline consumes: the deobfuscated
    script, recovery statistics, obfuscation scores before/after with the
    detected techniques, run profiling (wall time, per-phase milliseconds,
    a {!Pscommon.Telemetry.Metrics} snapshot) and the key indicators of
    the result.  {!to_json} renders it without external dependencies and
    carries the same observability fields as the batch reports. *)

type gate = {
  verdict : Verify.verdict;
  rolled_back : int;  (** rewrites rolled back to reach the verdict *)
  sandbox_runs : int;
  verify_ms : float;  (** wall time spent in the gate *)
}
(** The {!Verify} gate's figures, read from the [verify.verdict] event of
    the request's trace. *)

type t = {
  outcome : Batch.outcome;
      (** the request's outcome: [changed], recovery [stats], [iterations],
          [wall_ms] (pipeline and gate), [phase_ms] (see {!Engine.guarded})
          and the partial-parse regions *)
  output : string;
      (** under [analyze ~verify:true], the verified (possibly rolled-back)
          text *)
  score_before : int;
  score_after : int;
  techniques_before : string list;
  techniques_after : string list;
  metrics : Pscommon.Telemetry.Metrics.snapshot;
      (** process metrics captured right after the run *)
  urls : string list;
  ips : string list;
  ps1_files : string list;
  powershell_commands : string list;
  verify : gate option;  (** when [analyze ~verify:true] *)
}

val analyze : ?options:Engine.options -> ?verify:bool -> string -> t
(** Analyze one script.  Runs it through {!Batch.run_source} with no
    deadline and no output cap, so the report carries the same output,
    phase timings and contained-failure accounting as a batch run while a
    single file is still allowed to run to completion.  With [verify]
    (default off), the {!Verify} gate executes original and output in the
    sandbox, rolls back divergent rewrites, and the report carries the
    verdict.  Never raises. *)

val to_json : t -> string
(** Render the report as a JSON object.  Field order is stable: the
    pre-existing fields come first (the CLI contract pins the opening
    lines), the observability fields ([cache_hits], [iterations],
    [wall_ms], [phase_ms], [metrics], [regions_total],
    [regions_recovered]) and the ["verify"] object (or [null]) precede
    ["output"]. *)

