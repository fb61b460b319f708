(** Partial-parse segmentation: carve an unparseable script into maximal
    parseable regions.

    Real-world corpora are full of truncated downloads, binary-prefixed
    droppers and half-decoded fragments; an all-or-nothing parser forfeits
    every recoverable statement the moment one byte is bad.  This module
    finds {e statement-boundary sync points} (newline / [;] at bracket
    depth zero, outside strings, here-strings and comments), classifies
    the chunks between them, and coalesces adjacent parseable chunks into
    maximal regions whose concatenation still parses.  Unparseable and
    binary chunks come back as {!Opaque} / {!Binary} regions to be passed
    through verbatim. *)

type kind =
  | Parseable  (** the region text lexes and parses on its own *)
  | Opaque  (** text that failed to parse — passed through verbatim *)
  | Binary  (** a binary blob (NULs or mostly non-printable bytes) *)

type region = { start : int; stop : int; kind : kind }
(** Half-open byte range [\[start, stop)] of the original source.  Regions
    are contiguous and cover the whole input. *)

val sync_points : string -> int list
(** Candidate statement boundaries, ascending, always including [0] and
    [length src].  A sync point follows a newline or [;] seen at brace /
    paren / bracket depth zero outside quoted strings, here-strings and
    comments; unbalanced closers clamp the depth at zero so a stray [}]
    cannot swallow the rest of the file. *)

val segment : ?max_attempts:int -> string -> region list
(** Segment [src].  [max_attempts] bounds the number of parse attempts
    (default 512); once exhausted, remaining chunks are classified
    {!Opaque} rather than risking quadratic work on adversarial inputs.
    Each parse attempt runs under {!Pscommon.Guard.protect}, so a chunk
    whose parse blows the stack just becomes {!Opaque}.  A fully
    parseable input returns a single {!Parseable} region.  Opaque regions
    get a second, depth-insensitive refinement pass: an unbalanced opener
    inside the damage must not swallow every statement after it, so the
    region is re-split at quote-aware newlines and the refinement is kept
    whenever it surfaces a parseable sub-region.  Whitespace-only regions
    are demoted to {!Opaque}: they carry nothing to recover. *)
