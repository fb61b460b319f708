(** Behaviour sandbox (the TianQiong substitute, paper §IV-C3): runs a
    script with side effects recorded as events, and compares network
    behaviour between scripts. *)

type report = {
  events : Pseval.Env.event list;
  commands : string list;
      (** unresolved commands with stringified args, invocation order *)
  output : Psvalue.Value.t list;
  host_output : Psvalue.Value.t list;  (** what Write-Host printed *)
  bindings : (string * Psvalue.Value.t) list;
      (** final global-scope bindings the script established, by name *)
  error : string option;  (** execution error, if any; events are kept *)
  failure : Pscommon.Guard.failure option;
      (** set when the run was contained (stack overflow, deadline, step
          budget, stray exception) rather than finishing *)
}

val run :
  ?max_steps:int -> ?ast:Psast.Ast.t -> ?payloads:Pseval.Env.payloads ->
  string -> report
(** Never raises: execution is guarded, and a contained crash or overrun
    keeps the events recorded up to that point.  The run stops after
    [max_steps] (default the {!Pseval.Env.step_budget} of [script]) or at
    the evaluator's deadline ({!Pseval.Env.t}).  [ast], when the caller
    already holds the parse of the script, is run without parsing it
    again ({!Pseval.Interp.run_parsed}).  [payloads] are Invoke-Expression
    payloads recovery already decoded from this script
    ({!Pseval.Env.payloads}): a payload expression found there is not
    evaluated again, and the report is the same as without them. *)

val effect_log : report -> string list
(** Deterministic canonical effect log for semantic comparison:
    [cmd:] unresolved command invocations (in order), [event:] side-effect
    events (in order, minus the interpreter-invocation event that layer
    unwrapping legitimately removes), [out:] pipeline output, [host:]
    Write-Host output, [var:] final global binding {e values} as a sorted
    multiset (rename-insensitive), and a trailing [error] marker when
    evaluation errored.  Script-block values canonicalise to
    ["<scriptblock>"] so renames inside emitted blocks don't register. *)

val run_for_verify :
  max_steps:int -> ?ast:Psast.Ast.t -> ?payloads:Pseval.Env.payloads ->
  string -> (string list, string) result
(** Run under a tight budget of [max_steps] and return the {!effect_log},
    or [Error reason] when the run was contained (deadline, step budget,
    crash) — the script is then unverifiable rather than comparable.  [ast] and [payloads] as in {!run}: a reused
    payload is charged the steps its evaluation took, so the budget binds
    as it would without it. *)

val is_network_event : Pseval.Env.event -> bool

val network_signature : report -> string list
(** The sorted, deduplicated set of network events — the unit of comparison
    for behavioural consistency. *)

val has_network_behavior : report -> bool

val same_network_behavior : report -> report -> bool

val effective : original:string -> deobfuscated:string -> bool
(** The paper's effectiveness rule: the tool changed the script {e and}
    network behaviour is preserved (§IV-C3 does not count results equal to
    the input). *)
