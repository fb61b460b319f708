(** Invoke-Deobfuscation — the full pipeline (paper Fig 2).

    {[
      let result = Deobf.Engine.run obfuscated_script in
      print_string result.output
    ]}

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
  partial : bool;
      (** partial-parse recovery (default on): when the whole file fails to
          parse, segment it with {!Psparse.Segment} into maximal parseable
          regions, deobfuscate each through the normal fixpoint
          independently (renaming disabled — opaque fragments may reference
          original names), and reassemble with unparseable fragments passed
          through verbatim *)
}

and recovery_options = Recover.options = {
  use_tracing : bool;
  use_blocklist : bool;
  use_multilayer : bool;
  use_piece_cache : bool;
  max_depth : int;
  piece_step_budget : int;
  piece_timeout_s : float;
  use_dynamic : bool;
      (** provenance-guided dynamic recovery of loop/conditional regions
          ({!Recover.run_dynamic}), run as its own guarded phase after the
          static fixpoint *)
  dynamic_step_budget : int;
}

val default_options : options

type result = {
  output : string;
  stats : Recover.stats;
  iterations : int;  (** recovery passes actually run, not the bound *)
  changed : bool;  (** false when the tool returned the input unchanged *)
}

val run : ?options:options -> string -> result
(** Deobfuscate a script.  Never raises.  A script that fails to lex or
    parse goes through partial-parse recovery (see {!options.partial});
    when nothing at all is recoverable it comes back unchanged with
    [changed = false]. *)

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
          parse), then either ["recovery"], ["dynamic"], ["rename"],
          ["reformat"] and ["check"] for an input that parses, or
          ["segment"] and ["region"] (summed over regions) for the
          partial-parse path.  A phase that was switched off or skipped
          (deadline reached, nothing to segment) has no key.  The per-pass
          breakdown is exposed as [engine.pass] telemetry spans instead. *)
  regions_total : int;
      (** segments produced by partial-parse recovery (parseable, opaque
          and binary); 0 when the input parsed whole or [partial] is off *)
  regions_recovered : int;
      (** parseable regions whose sub-pipeline ran to completion *)
  edit_log : Editlog.stage list;
      (** journal of every extent edit the run applied, in stage order —
          what {!Verify} bisects on divergence.  Empty for the
          partial-parse (region) path, whose edits are local to region
          texts and cannot be replayed against the whole file. *)
}

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
    run.  Deeply nested scripts, decode bombs and random bytes each come
    back as a structured {!failure_site} — the call itself always returns,
    degrading phase-by-phase to the best text produced so far (partial
    recovery is kept on timeout).

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
  string ->
  guarded * parses
(** {!run_guarded}, also returning the parses of the input and the output.
    [run_guarded] is this function with the parses dropped: one code path.

    Each distinct text of the run is lexed once and parsed once: the input
    by the validity check, and every later text by the stage that produced
    it, which validates it with {!Psparse.Parser.parse_full} and hands the
    tokens and AST to the next stage. *)

val run_with_scores : ?options:options -> string -> result * int * int
(** [run_with_scores src] also returns the obfuscation score before and
    after (paper §IV-B2). *)

type phase_output = { phase : string; text : string }

val run_phases : ?options:options -> string -> phase_output list
(** The staged view of the pipeline (paper Fig 7): original, after token
    parsing, after recovery, after renaming and reformatting. *)
