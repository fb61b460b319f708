(** Invoke-Deobfuscation — the full pipeline (paper Fig 2).  Callers
    deobfuscate a script through {!Batch.run_source}, which runs it here
    under one request deadline and, when asked, the {!Verify} gate.

    Phases: token parsing → variable tracing & recovery based on AST
    (iterated to a fixpoint, unwrapping [Invoke-Expression] layers) →
    renaming and reformatting.  Each phase's output is syntax-checked and a
    phase that breaks the script is skipped, so when the input parses the
    output does too. *)

type options = {
  token_phase : bool;  (** L1 recovery from tokens (§III-A) *)
  recovery : recovery_options;
  rename : bool;  (** rename randomised identifiers to [var{n}] (§III-C) *)
  reformat : bool;  (** normalise whitespace and indentation *)
  max_iterations : int;  (** fixpoint bound for the recovery loop *)
}
(** A file that fails to parse whole always takes partial-parse recovery:
    it is segmented with {!Psparse.Segment} into maximal parseable regions,
    each is deobfuscated through the normal fixpoint independently
    (renaming disabled — opaque fragments may reference original names),
    and the unparseable fragments are passed through verbatim. *)

and recovery_options = Recover.options = {
  use_tracing : bool;
  use_blocklist : bool;
  use_multilayer : bool;
  use_piece_cache : bool;
  use_dynamic : bool;
      (** provenance-guided dynamic recovery of loop/conditional regions
          ({!Recover.run_dynamic}), run as its own guarded phase after the
          static fixpoint *)
}

val default_options : options

type result = {
  output : string;
  stats : Recover.stats;
  iterations : int;  (** recovery passes actually run, not the bound *)
  changed : bool;  (** false when the tool returned the input unchanged *)
}

type failure_site = { phase : string; failure : Pscommon.Guard.failure }
(** One contained degradation: which pipeline phase gave up and why.
    Phases, in degradation order: ["parse"], ["segment"], ["region"],
    ["recovery"], ["dynamic"], ["rename"], ["reformat"]. *)

type guarded = {
  result : result;
  failures : failure_site list;  (** contained degradations, in phase order *)
  timings : (string * float) list;
      (** wall milliseconds per phase, {e summed} per phase in
          first-execution order — keys are unique, so the list renders
          directly as a JSON object.  Keys: ["parse"] (the input's validity
          parse), then either ["recovery"], ["dynamic"], ["rename"] and
          ["reformat"] for an input that parses, or
          ["segment"] and ["region"] (summed over regions) for the
          partial-parse path.  A phase that was switched off or skipped
          (deadline reached, nothing to segment) has no key.  The per-pass
          breakdown is exposed as [engine.pass] telemetry spans instead. *)
  regions_total : int;
      (** segments produced by partial-parse recovery (parseable, opaque
          and binary); 0 when the input parsed whole *)
  regions_recovered : int;
      (** parseable regions whose sub-pipeline ran to completion *)
  edit_log : Editlog.stage list;
      (** journal of every extent edit the run applied, in stage order —
          what {!Verify} bisects on divergence.  Empty for the
          partial-parse (region) path, whose edits are local to region
          texts and cannot be replayed against the whole file. *)
}

val default_max_output_bytes : int  (** 32 MiB *)

val run_guarded :
  ?options:options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?cache:Recover.Cache.t ->
  ?suppress:Editlog.suppression list ->
  string ->
  guarded
(** Totalised pipeline for hostile input: every phase runs under
    {!Pscommon.Guard.protect} with one wall-clock deadline for the whole
    run: the enclosing ambient deadline, lowered to [timeout_s] from now
    when given.  Deeply nested scripts, decode bombs and random bytes each
    come back as a structured {!failure_site} — the call itself always
    returns, degrading phase-by-phase to the best text produced so far.
    When the deadline passes, partial recovery is kept and the later
    phases are skipped; when the recovery phase fails, it falls back to
    the newest text it validated that fits [max_output_bytes] (the
    token-phase output at the latest), and to the input only when there
    is none.

    [cache] supplies a caller-owned piece cache that persists across runs
    (the serve daemon keeps one warm per worker domain); by default each
    run gets a private cache.  Cache keys include the traced-binding
    digest and wall-clock-dependent failures are never stored, so a warm
    cache replays the exact results a cold run would compute.

    [suppress] re-runs the pipeline with the matching edits rolled back
    (content-matched at every depth; {!Editlog.suppress_finalize} disables
    rename + reformat) — the semantic gate's rollback mechanism. *)

type parses = {
  src_ast : Psast.Ast.t option;
      (** the input's parse; [None] when it does not parse *)
  out_ast : Psast.Ast.t option;
      (** the output's parse; [None] on the partial-parse path or when the
          output is the unparseable input *)
}
(** The parses a run made anyway, handed on to the verify gate
    ({!Verify.gate} [?src_ast ?out_ast]) so its sandbox runs do not parse
    the same texts again. *)

val run_guarded_parsed :
  ?options:options ->
  ?timeout_s:float ->
  ?max_output_bytes:int ->
  ?cache:Recover.Cache.t ->
  ?suppress:Editlog.suppression list ->
  ?payloads:Pseval.Env.payloads ->
  string ->
  guarded * parses
(** {!run_guarded}, also returning the parses of the input and the output.
    [run_guarded] is this function with the parses dropped: one code path.

    [payloads], given by a caller that will run the verify gate
    ({!Verify.run_guarded}), collects the Invoke-Expression payloads
    recovery decodes self-containedly, at any layer depth, keyed on the
    exact text it evaluated ({!Recover.run_pass_parsed}); it stays empty on
    the partial-parse path.  The gate's reference run reuses them
    ({!Verify.gate} [?payloads]).  Without it, recovery runs no
    self-containment probe.

    Each distinct text of the run is lexed once and parsed once: the input
    by the validity check, and every later text by the stage that produced
    it, which validates it with {!Psparse.Parser.parse_full} and hands the
    tokens and AST to the next stage. *)

type phase_output = { phase : string; text : string }

val run_phases : ?options:options -> string -> phase_output list
(** The staged view of the pipeline (paper Fig 7), read off one
    {!run_guarded_parsed} run: the original; the journal replayed through
    the entry token stage (pass [-1]); the whole journal replayed, the
    dynamic stage included; and the run's output.  An input that does not
    parse has the original alone. *)
