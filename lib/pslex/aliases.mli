(** PowerShell's built-in command aliases.

    Alias obfuscation (L1) swaps a cmdlet name for one of its aliases; the
    token phase reverses the swap using this table. *)

val resolve : string -> string option
(** [resolve "iex"] is [Some "Invoke-Expression"]; caseless. *)

val builtin_folded : string -> string
(** [builtin_folded "iex"] is ["invoke-expression"]: the lowercase cmdlet a
    lowercase name resolves to, or the name itself when it is no alias. *)

val is_alias : string -> bool

val aliases_of : string -> string list
(** All aliases of a cmdlet (caseless lookup); used by the obfuscator. *)

val canonical_case : string -> string option
(** Canonical spelling of a known cmdlet name, e.g.
    [canonical_case "invoke-expression" = Some "Invoke-Expression"].  Used by
    random-case recovery on commands. *)
