(** Renaming and reformatting (paper §III-C). *)

val is_vowel : char -> bool
val is_letter : char -> bool

val names_look_random : string list -> bool
(** The paper's statistic over the concatenation of all unique names:
    random when the vowel share of letters falls outside [32%, 42%]
    (Hayden 1950 puts English at 37.4%) or letters are under 10% of all
    characters. *)

val renameable_variable : string -> bool
(** Not an automatic variable and not drive-qualified. *)

val rename : string -> string
(** Rename randomised identifiers to [var{n}] / [func{n}] in order of first
    appearance, including interpolations inside double-quoted strings.
    Returns the input unchanged when names do not look random or the result
    would not parse. *)

val is_fresh_name : string -> bool
(** A name {!rename} can write ([var{n}] or [func{n}], any case). *)

val reformat : string -> string
(** Collapse horizontal whitespace, drop line continuations and comments,
    indent by brace depth.  Only existing gaps are rewritten, so member
    access and method-call adjacency survive.  Returns the input unchanged
    when the result would not parse. *)

val rename_parsed : Psparse.Parser.parsed -> Psparse.Parser.parsed
(** {!rename} on a text whose tokens are already known: no lex of the
    input, and the returned value carries the tokens and parse of the
    result (the input itself when nothing changed). *)

val reformat_parsed : Psparse.Parser.parsed -> Psparse.Parser.parsed
(** {!reformat} on a text whose tokens are already known, like
    {!rename_parsed}; the parse it validated its output with is the one
    returned. *)
