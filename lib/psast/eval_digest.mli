(** The evaluation digest of a pipeline's stages: an injective encoding of
    everything the evaluator reads from their trees, and of nothing else.

    Kept: node kinds and their shape, the folded variable, member,
    parameter and type keys, a bareword command's alias-resolved builtin
    name ([cmd_builtin]) and its invocation operator, operator identity and
    explicit case sensitivity, numbers by value, and bareword, string and
    expandable-text contents verbatim.  Dropped: extents, names as written
    and quote kinds.  So two spellings of one parse that differ only in
    case, ticks or a command alias digest alike, and evaluate alike, with
    two exceptions the caller must rule out itself: a user function named
    by a command as written (see {!site}), and a script block's text,
    which is its source as spelled.

    Stages are encoded alike whether or not the parser wrapped an
    expression in a CommandExpressionAst, so the argument of an
    Invoke-Expression and the same text parsed on its own as one pipeline
    digest alike.  The digest is the encoding itself, not a hash of it:
    equal digests mean equal trees, never a collision. *)

val pipeline : Ast.t list -> string
(** The digest of a pipeline's stages. *)

val site : Ast.t list -> string * string list
(** {!pipeline}, and the folded names as written ([cmd_folded]) of every
    bareword command in the stages: where one of them is a user function,
    the stages call it, whatever the digest's builtin names say. *)
