(** Recovery based on AST (paper §III-B): one in-order pass that unwraps
    [Invoke-Expression] layers, executes recoverable pieces against the
    traced context, and substitutes known variable values — all as in-place
    extent edits, syntax-checked as a whole. *)

type options = {
  use_tracing : bool;  (** ablation: Algorithm 1 on/off *)
  use_blocklist : bool;  (** ablation: skip pieces naming blocked commands *)
  use_multilayer : bool;  (** ablation: IEX / [-EncodedCommand] unwrapping *)
  use_piece_cache : bool;
      (** ablation: memoize piece invocations on (binding digest, text) —
          obfuscators emit the same decode piece hundreds of times per
          script, and the fixpoint loop re-attempts unrecovered pieces *)
  use_dynamic : bool;
      (** provenance-guided dynamic recovery ({!run_dynamic}) of the
          loop/conditional regions Algorithm 1 skips; every edit it makes
          still faces the verify gate individually *)
}
(** Step budgets are not options: an invoked piece runs under
    {!Pseval.Env.step_budget} of its own text and inside a
    {!Pscommon.Guard.protect}, so a crashing or hanging piece degrades to
    "kept obfuscated" instead of aborting the pass; one dynamic-recovery
    execution runs under the budget of the script it runs. *)

val default_options : options

type stats = {
  mutable pieces_recovered : int;
  mutable variables_substituted : int;
  mutable layers_unwrapped : int;
  mutable pieces_attempted : int;
  mutable pieces_blocked : int;
  mutable cache_hits : int;
      (** piece invocations answered from the memo cache (counted inside
          [pieces_attempted]) *)
  mutable edits_recorded : int;
      (** extent edits actually applied (post-normalization), summed over
          passes — the size of the journal the semantic gate bisects *)
  mutable dynamic_attempted : int;
      (** loop/conditional regions targeted by dynamic recovery *)
  mutable dynamic_recovered : int;
      (** regions replaced by provenance-mapped literal assignments *)
  mutable dynamic_unverifiable : int;
      (** regions degraded to static-only output: effects observed, values
          unrenderable, provenance missing or poisoned, or execution
          halted *)
}

val new_stats : unit -> stats

(** Content-addressed memo cache for piece invocation, shared across the
    fixpoint passes and unwrapped layers of one engine run — or, when a
    caller passes its own cache to {!Engine.run_guarded}, across many
    runs: batch shares one cache over all files and pool domains, and the
    serve daemon keeps one for the whole process, so repeated decode
    pieces stay warm between files and requests.  All operations are
    mutex-guarded and safe from any domain.

    Keys join the traced-binding digest with the piece text, so
    cross-script sharing is sound; replayed results are deterministic
    (wall-clock-dependent failures are never cached).

    The cache also holds the piece tier ({!Cache.piece}): keyed on a piece's
    text alone, it answers the three questions recovery asks before it
    runs the piece — its parse, whether it is already a literal, whether
    it names a blocked command — from one lexer run and one parse, so a
    piece is lexed and parsed once however many passes, files and domains
    ask.  Entries are environment-independent and kept even when result
    caching is ablated off.  The reference tier ({!Cache.reference}) holds
    the verify gate's effect logs of original scripts.

    The three tiers are bounded alike: a tier that holds its bound is
    emptied when a new key arrives.  The bound is [cap] entries, or 512
    for the reference tier when [cap] is larger.  A hit returns exactly
    what a miss would compute, so the bound moves only hit counts.  Hits
    are counted per tier in [recover.cache.tier.result], [.piece] and
    [.reference]; clears of the result tier in [recover.cache.resets];
    its occupancy is gauged by [recover.cache.entries]. *)
module Cache : sig
  type t

  type entry = (Psvalue.Value.t, string) result

  type stats = {
    entries : int;  (** result entries *)
    hits : int;  (** result lookups answered *)
    lookups : int;
    evictions : int;  (** result entries dropped by clears *)
  }

  val create : ?cap:int -> unit -> t
  (** Default capacity 2048 entries per tier (floor 1); the reference
      tier holds at most 512. *)

  val find : t -> string -> entry option
  val add : t -> string -> entry -> unit

  val stats : t -> stats

  type piece = {
    parsed : (Psast.Ast.t, string) result;
        (** {!Pseval.Interp.parse_piece}, its error text included *)
    trivial : bool;
        (** the parse is one lone string or number literal: the piece is
            already in recovered form *)
    blocked : bool;
        (** {!Blocklist.mentions_blocked_command}, read off the same
            tokens *)
  }

  val piece : t -> string -> piece
  (** The piece tier's entry for a text, built from one
      {!Pseval.Interp.lex_piece} and one {!Pseval.Interp.parse_lexed_piece}
      on a miss. *)

  val piece_count : t -> int
  (** Piece texts currently held. *)

  val reference :
    t ->
    string ->
    (unit -> (string list, string) result) ->
    (string list, string) result
  (** [reference t key run] is the reference tier's log for [key], or
      [run ()] on a miss, kept only when it is [Ok]: a containment error
      depends on the moment of execution and is never replayed.  The
      verify gate keys it on the script's content digest alone: the
      step budget is a function of that content. *)
end

val is_recoverable : Psast.Ast.t -> bool
(** The paper's recoverable-node test (§III-B1): PipelineAst,
    UnaryExpressionAst, BinaryExpressionAst, ConvertExpressionAst,
    InvokeMemberExpressionAst, SubExpressionAst. *)

val run_pass :
  opts:options ->
  stats:stats ->
  cache:Cache.t ->
  deobfuscate:(depth:int -> string -> string) ->
  depth:int ->
  ?log:Editlog.t ->
  ?pass:int ->
  ?suppress:Editlog.suppression list ->
  ast:Psast.Ast.t ->
  string ->
  (string * Psast.Ast.t) option
(** One recovery pass over an already-parsed script ([ast] must be the
    parse of the text argument).  [deobfuscate] is the full engine, called
    recursively on unwrapped layer payloads.  [None] when the pass changed
    nothing or its edits would break the script; [Some (patched, ast')]
    carries the validated parse of the patched text so the caller never
    re-parses.  [log] journals the applied edits (phase ["recover"], pass
    [pass]) once the patch is validated; [suppress] skips edits the
    semantic gate rolled back, matched by content. *)

val run_pass_parsed :
  opts:options ->
  stats:stats ->
  cache:Cache.t ->
  deobfuscate:(depth:int -> string -> string) ->
  depth:int ->
  ?log:Editlog.t ->
  ?pass:int ->
  ?suppress:Editlog.suppression list ->
  ?payloads:Pseval.Env.payloads ->
  ast:Psast.Ast.t ->
  string ->
  Psparse.Parser.parsed option
(** {!run_pass}, returning the tokens of the patched text along with its
    parse, so the next stage does not lex it again.  With [payloads], every
    Invoke-Expression payload the pass evaluates self-containedly (an
    IEX argument or a [… | iex] prefix; see {!Pseval.Interp.invoke_payload})
    is recorded there under its exact text, for the verify gate's
    reference run.  A payload answered from the piece cache is not
    evaluated, so it is not recorded. *)

val run_dynamic :
  opts:options ->
  stats:stats ->
  ?log:Editlog.t ->
  ?pass:int ->
  ?suppress:Editlog.suppression list ->
  string ->
  (string * Psast.Ast.t) option
(** Provenance-guided dynamic recovery of the regions the static tracer
    skips (PowerPeeler-style; runs after the static fixpoint).  Executes
    the script's top level in the sandbox, under the
    {!Pseval.Env.step_budget} of the script, with a {!Pseval.Provenance}
    recorder installed and replaces each loop/conditional region whose
    execution was pure with literal assignments of the bindings it
    changed, in provenance (last-write) order — but only when every final
    value renders faithfully and its last write is proven to lie inside
    the region.  Regions with effects, unrenderable values, or missing/
    poisoned provenance degrade to static-only ([dynamic_unverifiable]).
    Edits are journaled under kinds [dynamic.loop] / [dynamic.conditional]
    (rule keys [recover.dynamic.*]), so the verify gate bisects and rolls
    them back individually and {!Quarantine} can circuit-break them.
    [None] when dynamic recovery is disabled, found no candidates, or
    changed nothing. *)

val run_dynamic_parsed :
  opts:options ->
  stats:stats ->
  ?ast:Psast.Ast.t ->
  ?log:Editlog.t ->
  ?pass:int ->
  ?suppress:Editlog.suppression list ->
  string ->
  Psparse.Parser.parsed option
(** {!run_dynamic}, returning the tokens of the patched text along with its
    parse.  [ast] is the parse of the text argument when the caller
    already holds it (the static fixpoint's last validated parse). *)
