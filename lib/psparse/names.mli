(** Lookup keys for the names the evaluator dispatches on.

    The parser calls these once per name and stores the key in the AST
    next to the text as written (see {!Psast.Ast.name}), so the evaluator
    never folds a name taken from the AST.  The evaluator calls them only
    on names that exist at run time: New-Object arguments, [.$x] members,
    and names a script builds while it runs.  A key equal to its
    argument is the argument itself, not a copy. *)

val type_key : string -> string
(** The name inside the brackets, folded, trimmed, without a leading
    [System.] and without blanks: ["System.Char\[\] "] and ["char \[\]"]
    both key as ["char\[\]"]. *)

val type_name : string -> Psast.Ast.name

val folded : string -> Psast.Ast.name
(** Keyed by folding alone: member and function names. *)

val parameter : string -> Psast.Ast.name
(** [-EncodedCommand:] keys as ["encodedcommand"]: folded, without the
    leading dash and the trailing colon. *)

val var_key : string -> Psast.Ast.var_key
(** A variable name without its sigil: ["Env:PATH"] keys as the
    environment drive and ["path"]. *)

val variable : ?splat:bool -> string -> Psast.Ast.variable

val command : string -> Psast.Ast.command_key
(** A bare command name: ["%"] keys as ["%"] for function lookup and
    ["foreach-object"] for builtin dispatch. *)
