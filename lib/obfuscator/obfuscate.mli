(** Top-level obfuscation driver (the Invoke-Obfuscation substitute).

    All entry points are deterministic in the supplied {!Pscommon.Rng.t};
    whole-script application preserves syntax validity and sandbox
    behaviour (tested property). *)

val apply : Pscommon.Rng.t -> Technique.t -> string -> string
(** Apply one technique to a whole script: token-level patches for L1,
    string-literal rewriting for L2, an encoded wrapper for L3. *)

val piece : Pscommon.Rng.t -> Technique.t -> string -> string
(** An obfuscated {e piece} for the deobfuscation-ability experiment
    (Table II): L1 retries until the technique visibly fired; L2 yields a
    string expression evaluating to the input; L3 wrappers use obfuscated
    launcher spellings with variable indirection, as wild pieces do. *)

val wild_mix :
  ?p_l1:float ->
  ?p_l2:float ->
  ?p_l3:float ->
  ?launcher:[ `Literal | `Obfuscated | `Random ] ->
  Pscommon.Rng.t ->
  string ->
  string * Technique.t list
(** A wild-style sample following the paper's Table I level distribution
    (defaults 98% / 98% / 96%).  Name randomisation runs before encoding;
    L3 wraps the whole script or a single statement line (partial
    obfuscation, the shape of the paper's case script); L2 rewrites the
    outermost layer's strings.  Returns the script and the applied
    techniques. *)

val multilayer : Pscommon.Rng.t -> int -> string -> string
(** Stack the given number of random L3 wrappers (Table III workload). *)
