(** ASCII case-insensitive string utilities.

    PowerShell is case-insensitive almost everywhere (keywords, command
    names, parameters, member names, operators), so caseless comparison is
    pervasive in both the lexer and the deobfuscator. *)

val lower : string -> string
(** ASCII lowercase.  Returns its argument, without allocating, when it
    has no uppercase letter. *)

val upper : string -> string
(** ASCII uppercase.  Returns its argument when it has no lowercase
    letter. *)

val equal : string -> string -> bool
(** Caseless equality.  This and the comparisons below work in place: no
    substring and no lowercased copy. *)

val compare : string -> string -> int

val starts_with : prefix:string -> string -> bool
(** Caseless prefix test. *)

val ends_with : suffix:string -> string -> bool

val contains : needle:string -> string -> bool
(** Caseless substring search; the empty needle is contained everywhere. *)

val index_opt : ?from:int -> needle:string -> string -> int option
(** Offset of the first caseless occurrence of [needle] at or after [from]. *)

val replace_all : needle:string -> replacement:string -> string -> string
(** Replace every caseless, non-overlapping occurrence, scanning left to
    right.  The empty needle returns the input unchanged. *)

val replace_word :
  needle:string ->
  replacement:string ->
  is_word_char:(char -> bool) ->
  string ->
  string
(** Like {!replace_all}, but an occurrence immediately followed by a
    word character is skipped — whole-identifier replacement, used when
    renaming [$variables] inside interpolated strings. *)

module Map : Map.S with type key = string
(** Maps keyed by caseless strings. *)

module Set : Set.S with type elt = string
(** Sets of caseless strings. *)
