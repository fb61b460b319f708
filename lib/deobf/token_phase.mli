(** Token parsing phase (paper §III-A): recovery of L1 obfuscation from
    token attributes — ticking, aliases, random case, line continuations —
    replaced strictly in place. *)

val run :
  ?log:Editlog.t -> ?pass:int -> ?suppress:Editlog.suppression list ->
  string -> string
(** Returns the input unchanged when it does not lex, or when the patched
    result would not parse (paper §IV-A).  [log] journals every applied
    edit (phase ["token"]) once the result is validated; [suppress] skips
    edits rolled back by the semantic gate. *)

val run_shared :
  ?log:Editlog.t -> ?pass:int -> ?suppress:Editlog.suppression list ->
  string -> (string * Psast.Ast.t) option
(** Like {!run}, but distinguishes "changed nothing" ([None]) and returns
    the validated parse of the changed result, so a fixpoint driver can
    skip its own re-parse and re-check. *)

val run_parsed :
  ?log:Editlog.t -> ?pass:int -> ?suppress:Editlog.suppression list ->
  ?toks:Pslex.Token.t list -> string -> Psparse.Parser.parsed option
(** {!run_shared}, also returning the tokens of the changed result.
    [toks], when given, must be the tokens of the text argument; the phase
    then does not lex it again. *)

val canonical_member : string -> string
(** Canonical spelling of a known member name ([replace] → [Replace]). *)

val canonical_type : string -> string
(** Canonical spelling of a known type name
    ([text.encoding] → [Text.Encoding]). *)
