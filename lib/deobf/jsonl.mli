(** Minimal field extraction over single-line JSON objects.

    Shared by the batch resume journal and the serve daemon's NDJSON
    protocol.  Not a general JSON parser: it scans {e flat} objects whose
    string values were escaped by {!Pscommon.Telemetry.json_escape} (no
    raw newlines, no unescaped quotes).  Every accessor returns [None] on a malformed
    or absent field — callers degrade (skip the journal line, answer the
    request with a structured error) rather than raise. *)

val string_field : string -> string -> string option
(** [string_field line key] — the unescaped value of ["key": "..."]. *)

val int_field : string -> string -> int option

val float_field : string -> string -> float option
(** Accepts plain JSON numbers ([-1.5], [2e3]); [None] otherwise. *)

val bool_field : string -> string -> bool option

val field_start : string -> string -> int option
(** Index of the first value character after ["key":] and any spaces —
    the building block of the typed accessors, exposed for callers that
    need presence checks or custom scans. *)

val oneline : string -> string
(** Replace every newline with a space — turns this codebase's pretty
    multi-line JSON renderings into single NDJSON lines.  Only safe for
    JSON we rendered ourselves ({!Pscommon.Telemetry.json_escape} never
    leaves a raw newline inside a string value). *)

(** Newline framing over a socket, for the serve daemon's listener and the
    client.  Bytes are read into one buffer that grows by doubling, and
    each byte is searched for a newline once, so a line that takes many
    reads to arrive costs time linear in its length.  Once every line
    read has been returned, a grown buffer is given back. *)
module Reader : sig
  type t

  val create : unit -> t

  val read : t -> Unix.file_descr -> int
  (** One [Unix.read] of at most 64 KiB into the buffer; the number of
      bytes read, 0 at end of file.
      @raise Unix.Unix_error as [Unix.read] does. *)

  val next_line : t -> string option
  (** The oldest complete line read, without its newline, or [None] when
      no newline is buffered. *)

  val pending : t -> int
  (** Bytes read and not yet returned in a line. *)
end
