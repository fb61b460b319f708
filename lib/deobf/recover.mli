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
  max_depth : int;  (** multi-layer recursion bound *)
  piece_step_budget : int;  (** interpreter budget per invoked piece *)
  piece_timeout_s : float;
      (** wall-clock budget per invoked piece; each piece runs under a
          {!Pscommon.Guard.protect}, so a crashing or hanging piece degrades
          to "kept obfuscated" instead of aborting the pass *)
  use_dynamic : bool;
      (** provenance-guided dynamic recovery ({!run_dynamic}) of the
          loop/conditional regions Algorithm 1 skips; every edit it makes
          still faces the verify gate individually *)
  dynamic_step_budget : int;
      (** interpreter budget for one whole dynamic-recovery execution *)
}

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
    (wall-clock-dependent failures are never cached).  Bounding is
    two-generation segmented eviction: when the hot generation fills, it
    becomes the cold one and the previous cold generation is dropped, so
    recently-used entries survive overflow instead of the whole table
    cold-starting.  Generation flips are counted in
    [recover.cache.resets]; occupancy is gauged by
    [recover.cache.entries].

    With [dir], every cacheable result is also written through to a
    persistent tier: one digest-named [*.piece] file per entry, written
    atomically (tmp + rename) and self-verifying (magic, payload digest,
    and the caller's version/options [fingerprint]); any defect — torn
    write, corruption, foreign fingerprint — loads as a miss, never a
    crash.  A later run pointed at the same [dir] with the same
    fingerprint starts warm.

    The cache also memoizes closure-compiled piece programs
    ({!Pseval.Compile}) keyed on text alone; programs are
    environment-independent, never persisted, and shared even when result
    caching is ablated off. *)
module Cache : sig
  type t

  type entry = (Psvalue.Value.t, string) result

  type stats = {
    entries : int;  (** in-memory entries, both generations *)
    hits : int;  (** lookups answered, any tier *)
    lookups : int;
    evictions : int;  (** entries dropped by generation flips *)
    persistent_loads : int;  (** hits answered from the persistent tier *)
  }

  val create : ?cap:int -> ?dir:string -> ?fingerprint:string -> unit -> t
  (** Default capacity 2048 entries (floor 1) split over two generations.
      [dir] enables the persistent tier (the directory must exist);
      [fingerprint] guards its entries against version/options drift —
      use a digest of everything that could change evaluation results. *)

  val find : t -> string -> entry option
  val add : t -> string -> entry -> unit

  val length : t -> int
  (** Current in-memory entry count. *)

  val stats : t -> stats

  val shrink : t -> unit
  (** Memory-pressure shed: drop the cold generation of the result,
      compiled-program and per-text fact tiers (counted in
      [recover.cache.shrinks] and the eviction stats), keeping the hot
      working set.  The persistent tier is untouched, so shrunk entries
      reload on demand. *)

  (** Per-text facts: pure answers about a piece text that every fixpoint
      pass would otherwise recompute with a parse or a lex.  Keyed on
      (fact, text), never persisted, and bounded like the program tier
      (two generations flipping at half the capacity, cold generation
      dropped by {!shrink}). *)
  type fact =
    | Trivial  (** the piece is already a lone string or number literal *)
    | Blocked  (** {!Blocklist.mentions_blocked_command} *)

  val fact : t -> fact -> string -> (string -> bool) -> bool
  (** [fact t f text compute] answers [f] for [text] from the tier, or
      computes it with [compute text] and remembers the answer. *)

  val fact_count : t -> fact -> int
  (** Texts whose answer to the fact is currently held, both
      generations. *)
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
  ast:Psast.Ast.t ->
  string ->
  Psparse.Parser.parsed option
(** {!run_pass}, returning the tokens of the patched text along with its
    parse, so the next stage does not lex it again. *)

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
    the script's top level in the sandbox with a {!Pseval.Provenance}
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
  ?cache:Cache.t ->
  ?ast:Psast.Ast.t ->
  ?log:Editlog.t ->
  ?pass:int ->
  ?suppress:Editlog.suppression list ->
  string ->
  Psparse.Parser.parsed option
(** {!run_dynamic}, returning the tokens of the patched text along with its
    parse.  [ast] is the parse of the text argument when the caller
    already holds it (the static fixpoint's last validated parse); [cache]
    answers the blocklist test of each candidate region from its per-text
    tier. *)
