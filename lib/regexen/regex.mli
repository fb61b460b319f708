(** A self-contained backtracking regular-expression engine.

    This is the substrate behind two things:
    {ul
    {- the baseline deobfuscators (PSDecode / PowerDrive / PowerDecode are
       defined by regex rule sets in their papers and repositories);}
    {- PowerShell's regex operators ([-match], [-replace], [-split]) in the
       interpreter.}}

    Supported syntax: literals, [.], character classes with ranges and
    negation, escapes ([\d \D \w \W \s \S \n \r \t \xHH] and escaped
    metacharacters), alternation, capturing groups, non-capturing groups
    [(?:...)], greedy and lazy quantifiers ([* + ? {n} {n,} {n,m}]),
    anchors [^ $ \b \B], and backreferences [\1]–[\9].

    A pattern made only of plain characters (escaped metacharacters such
    as [\.] included) is a {e literal}: every search ({!find} and all the
    functions built on it) scans for it directly, with the same caseless
    character comparison, instead of running the backtracking matcher at
    each offset.  The choice is made from the pattern alone and gives the
    same matches. *)

type t

exception Parse_error of string

val compile : ?case_insensitive:bool -> string -> t
(** @raise Parse_error on malformed patterns.  PowerShell regex operators
    are case-insensitive by default; the baselines' rules mostly are too,
    so that is this engine's default as well. *)

val compile_opt : ?case_insensitive:bool -> string -> (t, string) result

type group = { g_start : int; g_stop : int }
(** Half-open byte range of a capture, or [(-1,-1)] when unset. *)

type match_result = {
  m_start : int;
  m_stop : int;
  groups : group array;  (** index 0 is the whole match *)
}

val matched_text : string -> match_result -> string
val group_text : string -> match_result -> int -> string option

(** {2 Searching}

    A search counts its work in matcher steps of about 26 ns: one per
    pattern node visited, two per start position tried, one per two
    offsets a literal scan compares.  Without [charge], each start
    position fails to match past two million steps.  With [charge] (the
    evaluator's operators pass one), no position has a budget: [charge n]
    is called as each further [n] steps (a multiple of 64) are done, and
    stops the search by raising. *)

val find : ?start:int -> t -> string -> match_result option
(** Leftmost match at or after [start]. *)

val find_all : t -> string -> match_result list
(** Non-overlapping matches, left to right.  Empty matches advance by one
    character to guarantee termination. *)

val is_match : ?charge:(int -> unit) -> t -> string -> bool

val replace : ?charge:(int -> unit) -> t -> template:string -> string -> string
(** Replace every match.  The template supports [$1]–[$9], [$&] (whole
    match), [$$] (literal dollar), and [${n}]. *)

val replace_f : t -> f:(string -> match_result -> string) -> string -> string
(** Replace every match with the result of [f subject m]. *)

val split_map :
  ?limit:int ->
  ?charge:(int -> unit) ->
  f:(string -> 'a) ->
  t ->
  string ->
  'a array
(** Split on every match, like .NET [Regex.Split] (no captured separators;
    adjacent matches yield empty fields), each field passed through [f].
    With [limit] = k > 0 at most k fields come back: the last one is the
    rest of the subject after the (k-1)-th match, verbatim. *)

val split : ?limit:int -> ?charge:(int -> unit) -> t -> string -> string list
(** {!split_map} of the fields themselves, as a list. *)

val quote : string -> string
(** Escape a literal so it matches itself. *)
