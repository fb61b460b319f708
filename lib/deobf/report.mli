(** Structured analysis reports.

    One call bundles what an analyst pipeline consumes: the deobfuscated
    script, recovery statistics, obfuscation scores before/after with the
    detected techniques, run profiling (wall time, per-phase milliseconds,
    a {!Pscommon.Telemetry.Metrics} snapshot) and the key indicators of
    the result.  {!to_json} renders it without external dependencies and
    carries the same observability fields as the batch reports. *)

type t = {
  output : string;
  changed : bool;
  score_before : int;
  score_after : int;
  techniques_before : string list;
  techniques_after : string list;
  pieces_recovered : int;
  variables_substituted : int;
  layers_unwrapped : int;
  pieces_attempted : int;
  pieces_blocked : int;
  cache_hits : int;  (** piece-cache hits during recovery *)
  iterations : int;  (** recovery passes actually run *)
  wall_ms : float;  (** wall time of the whole analysis *)
  phase_ms : (string * float) list;
      (** wall milliseconds summed per phase, unique keys
          (see {!Engine.guarded}) *)
  metrics : Pscommon.Telemetry.Metrics.snapshot;
      (** process metrics captured right after the run *)
  regions_total : int;
      (** partial-parse recovery segments (see {!Engine.guarded}); 0 when
          the input parsed whole *)
  regions_recovered : int;
  urls : string list;
  ips : string list;
  ps1_files : string list;
  powershell_commands : string list;
  verify : Verify.outcome option;
      (** semantic-equivalence verdict when [analyze ~verify:true]; the
          report's [output] is the verified (possibly rolled-back) text *)
}

val analyze : ?options:Engine.options -> ?verify:bool -> string -> t
(** Analyze one script.  Runs the guarded pipeline with no deadline, so
    the report carries the same phase timings and contained-failure
    accounting as a batch run while a single file is still allowed to run
    to completion.  With [verify] (default off), the {!Verify} gate
    executes original and output in the sandbox, rolls back divergent
    rewrites, and the report carries the verdict.  Never raises. *)

val to_json : t -> string
(** Render the report as a JSON object.  Field order is stable: the
    pre-existing fields come first (the CLI contract pins the opening
    lines), the observability fields ([cache_hits], [iterations],
    [wall_ms], [phase_ms], [metrics], [regions_total],
    [regions_recovered]) and the ["verify"] object (or [null]) precede
    ["output"]. *)

