(** Semantic-equivalence gate: after the pipeline, execute the original and
    the deobfuscated script in the behaviour sandbox, diff their canonical
    effect logs ({!Sandbox.effect_log}), and on divergence bisect the
    recorded edit journal ({!Editlog}) to find and roll back the minimal
    offending rewrite — then re-verify.

    The gate never raises and never loops: sandbox executions run under the
    interpreter's step budget and deadline, rollback rounds are
    bounded, and a chaos fault injected at the ["verify.diff"] probe site
    degrades to a (spurious) divergence that exercises the same rollback
    machinery.  The gate keeps no state of its own: the reference-log memo
    is the caller's cache's reference tier ({!Recover.Cache.reference}). *)

type verdict =
  | Equivalent  (** effect logs match (or the tool changed nothing) *)
  | Rolled_back of int
      (** logs match after suppressing this many offending rewrites and
          re-running the pipeline *)
  | Diverged
      (** logs still differ after four rollback rounds — the output is kept
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
  ?cache:Recover.Cache.t ->
  ?src_ast:Psast.Ast.t ->
  ?out_ast:Psast.Ast.t ->
  ?payloads:Pseval.Env.payloads ->
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

    With [cache], the {e original} script's effect log comes from its
    reference tier ({!Recover.Cache.reference}), keyed on the content
    digest alone (the step budget is a function of the content): only
    successful logs are kept
    (containment errors depend on the moment of execution), so a hit
    returns exactly what a fresh run would and verdicts are the same with
    or without it; a hit just skips one sandbox execution (counted in
    [recover.cache.tier.reference], not in [sandbox_runs]).  Without
    [cache] the gate keeps no memo, and nothing it reports depends on
    what ran before it.

    [src_ast] and [out_ast] are the parses of [src] and of [guarded]'s
    output when the caller holds them ({!Engine.run_guarded_parsed}): the
    reference and output sandbox runs then execute them without parsing
    either text again.  Without [src_ast] the gate parses [src] once and
    uses that parse for its reference run.

    [payloads] are the Invoke-Expression payloads the run decoded
    ({!Engine.run_guarded_parsed} [?payloads]): the reference run reuses
    them instead of decoding each one again (one decode per payload per
    request), with the same effect log, step count and verdict as without
    them.  The output and bisection runs do not use them.

    Every sandbox run — the reference run, the output run, bisection
    prefixes and re-verifications — is bounded by one step budget, the
    {!Pseval.Env.step_budget} of [src], so both sides of a comparison run
    under the same budget; and by the evaluator's deadline
    ({!Pseval.Env.t}), which the ambient request deadline
    ({!Pscommon.Guard.within}) lowers.  A reference run, or a
    first output run, the request deadline contains ends the gate
    [Unverifiable "request deadline"] with [guarded] kept: no bisection or
    rollback starts from a run the deadline cut short.  Once a divergence
    is found, the deadline ends the gate as running out of rounds does:
    [Diverged], with the current round's run, suppressions and rules.  No
    rollback re-run starts past the deadline. *)

val run_guarded :
  ?options:Engine.options ->
  ?cache:Recover.Cache.t ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  string ->
  Engine.guarded * outcome
(** One verified request: {!Engine.run_guarded_parsed} followed by {!gate},
    handing the gate the run's parses and decoded payloads, with rollback
    re-runs wired to the same engine configuration.  One cache serves the
    first engine run, the re-runs and the gate's reference memo: [cache],
    or a fresh one for this request when none is passed.  With
    [timeout_s], the engine run and the whole gate share one deadline
    ({!Pscommon.Guard.within}), never later than an enclosing one. *)
