(** Structured edit journal for the semantic-equivalence gate, and the one
    place an edit lands.

    Every journaled stage — the token phase, each recovery pass, the
    dynamic stage, simplification — asks {!admits} about each edit it
    proposes and hands the admitted ones to {!land_edits}, which applies
    them, keeps the result only if it parses (paper §IV-A) and journals
    exactly what it applied, grouped into stages (one per landed
    application).  Renaming lands its token edits through {!land_edits}
    too, unjournaled.  Stage outputs chain — each stage's input is the
    previous stage's output — so replaying a prefix of the flattened edit
    sequence reproduces the recorded intermediate texts exactly;
    {!Verify} bisects on that.  {!Quarantine} is consulted here and
    nowhere else. *)

type edit = {
  phase : string;  (** producing phase: ["token"], ["recover"], ["simplify"] *)
  kind : string;  (** finer site label: ["piece"], ["substitute"], ["unwrap"], … *)
  pass : int;  (** fixpoint pass index; [-1] for the entry token phase *)
  start : int;
  stop : int;  (** byte extent in the stage's input text *)
  before : string;
  after : string;
}

type stage = {
  s_phase : string;
  s_pass : int;
  s_edits : edit list;  (** in application order (sorted, nesting resolved) *)
}

type t

val create : unit -> t

val stages : t -> stage list
(** Chronological. *)

val flatten : stage list -> edit array
(** Edits in global application order. *)

val replay_prefix : src:string -> stage list -> int -> string
(** [replay_prefix ~src stages n] applies the first [n] flattened edits to
    [src]: whole stages reproduce recorded intermediate texts byte for
    byte; a trailing partial stage applies a prefix of its edits; later
    stages are dropped.  The result may not parse — callers treat that as
    a divergent state. *)

(** {2 Suppression (rollback)}

    Rollback re-runs the pipeline with offending edits suppressed by
    content [(phase, before, after)], not position — a re-run recomputes
    all downstream offsets, and a divergent rewrite is unsafe wherever the
    same text recurs. *)

type suppression = { sup_phase : string; sup_before : string; sup_after : string }

val suppress_edit : edit -> suppression

val suppress_finalize : suppression
(** Pseudo-suppression rolling back the finalization phase (rename +
    reformat), whose rewrites are not extent edits. *)

val finalize_suppressed : suppression list -> bool

val describe : suppression -> string
(** Short human-readable form for logs and telemetry. *)

(** {2 Landing} *)

val admits :
  suppress:suppression list -> phase:string -> kind:string -> src:string ->
  extent:Pscommon.Extent.t -> after:string -> bool
(** May the edit replacing [extent] of [src] by [after] be proposed?
    Asks {!Quarantine.admits} for the rule [phase ^ "." ^ kind] first
    (its answer and side effects come first, whatever the suppressions),
    then checks the suppressions by content; [before] is sliced from
    [src] only when [suppress] is non-empty. *)

val admits_finalize : suppression list -> bool
(** Should finalization (rename + reformat) run?  [false] under
    {!suppress_finalize}, otherwise the ["engine.finalize"] breaker's
    answer, asked only when the phase is not suppressed. *)

val land_edits :
  ?log:t -> phase:string -> pass:int -> src:string ->
  (Pscommon.Patch.edit * string) list -> (Psparse.Parser.parsed * int) option
(** Land one stage: [(edit, kind)] proposals against [src], applied at
    once with {!Pscommon.Patch.apply}.  [None] when nothing lands — no
    proposal, partially overlapping or out-of-range edits, a result equal
    to [src], or a result that does not parse.  Otherwise the validated
    parse of the result and the number of edits applied (nested edits are
    dropped by normalization); with [log], the applied edits are journaled
    as one stage under [phase] and [pass]. *)
