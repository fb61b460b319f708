(** Semantic-equivalence gate: after the pipeline, execute the original and
    the deobfuscated script in the behaviour sandbox, diff their canonical
    effect logs ({!Sandbox.effect_log}), and on divergence bisect the
    recorded edit journal ({!Editlog}) to find and roll back the minimal
    offending rewrite — then re-verify.

    The gate never raises and never loops: sandbox executions run under the
    interpreter's step budget plus a wall-clock guard, rollback rounds are
    bounded, and a chaos fault injected at the ["verify.diff"] probe site
    degrades to a (spurious) divergence that exercises the same rollback
    machinery. *)

type verdict =
  | Equivalent  (** effect logs match (or the tool changed nothing) *)
  | Rolled_back of int
      (** logs match after suppressing this many offending rewrites and
          re-running the pipeline *)
  | Diverged
      (** logs still differ after the rollback budget — the output is kept
          but flagged; treat it as untrusted *)
  | Unverifiable of string
      (** comparison impossible: the original does not parse (so its
          behaviour has no reference run) or its sandbox execution was
          contained (deadline, step budget, crash) *)

val verdict_name : verdict -> string
(** ["equivalent"], ["rolled_back"], ["diverged"] or ["unverifiable"] —
    stable labels for reports, metrics and JSON. *)

val verdict_detail : verdict -> string option
(** Human-readable qualifier (rollback count, unverifiability reason). *)

type opts = {
  max_steps : int;  (** interpreter budget per sandbox execution *)
  timeout_s : float;  (** wall-clock budget per sandbox execution *)
  max_rounds : int;  (** rollback attempts before giving up as [Diverged] *)
  use_ref_cache : bool;
      (** memoize the {e original} script's reference effect log, keyed on
          content digest plus sandbox limits.  Only successful logs are
          cached (containment errors are wall-clock-dependent), so a memo
          hit returns exactly what a fresh run would — verdicts are
          identical with the cache on or off; a hit just skips one sandbox
          execution (counted in [verify.ref_cache_hits], not in
          [sandbox_runs]).  The memo is process-wide and bounded. *)
}

val default_opts : opts
(** 400k steps, 5s, 4 rounds, reference cache on. *)

type outcome = {
  verdict : verdict;
  sandbox_runs : int;
      (** sandbox executions performed (original + output + bisection
          probes + re-verifications); 0 when the output equals the input *)
  suppressed : Editlog.suppression list;
      (** rewrites rolled back to reach the verdict, newest first *)
  rolled_rules : string list;
      (** attribution names of the rolled-back transforms, deduplicated,
          newest first — [phase ^ "." ^ kind] for journaled edits (e.g.
          ["recover.substitute"]), ["engine.finalize"] for the
          finalization pseudo-suppression.  This is what {!Quarantine}
          keys its per-rule circuit breakers on. *)
  dynamic_rolled_back : int;
      (** how many of [rolled_rules] are dynamic-recovery rules
          ([recover.dynamic.*]) — the gate catching a provenance-mapped
          substitution that changed behaviour *)
  verify_ms : float;  (** wall time spent in the gate *)
}

val gate :
  ?opts:opts ->
  ?src_ast:Psast.Ast.t ->
  ?out_ast:Psast.Ast.t ->
  rerun:(suppress:Editlog.suppression list -> Engine.guarded) ->
  src:string ->
  Engine.guarded ->
  Engine.guarded * outcome
(** [gate ~rerun ~src guarded] verifies [guarded] (a finished pipeline run
    on [src]) and returns the run to trust — the input one, or the re-run
    the rollback produced — plus the verdict.  [rerun ~suppress] must
    re-execute the {e same} pipeline on the {e same} source with the given
    rollback suppressions (see {!Engine.run_guarded}); the pipeline is
    deterministic, so a re-run with no suppressions reproduces [guarded].

    Bisection replays prefixes of [guarded.edit_log] against [src] and
    executes them: the anchor prefix 0 is the original itself and is never
    re-evaluated, a prefix that fails to parse or whose execution is
    contained counts as divergent, and when every journaled edit checks
    out the culprit is the finalization phase (rename + reformat), rolled
    back with {!Editlog.suppress_finalize}.

    [src_ast] and [out_ast] are the parses of [src] and of [guarded]'s
    output when the caller holds them ({!Engine.run_guarded_parsed}): the
    reference and output sandbox runs then execute them without parsing
    either text again.  Without [src_ast] the gate parses [src] once and
    uses that parse for its reference run. *)

val run_guarded :
  ?options:Engine.options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?opts:opts ->
  string ->
  Engine.guarded * outcome
(** Convenience wrapper: {!Engine.run_guarded} followed by {!gate}, with
    rollback re-runs wired to the same engine configuration. *)
