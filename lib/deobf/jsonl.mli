(** A strict JSON reader for single NDJSON lines.

    Shared by the batch resume journal, the serve daemon's protocol and
    its client: each reads a line by parsing it once with {!parse} and
    looking its fields up in the result.  The reader takes any JSON text,
    whitespace between tokens included, and decodes every escape
    ([\uXXXX] and surrogate pairs as UTF-8).  Bytes outside escapes are
    copied as they are, so every string {!Pscommon.Telemetry.json_escape}
    wrote reads back byte for byte, non-UTF-8 bytes included.  A malformed
    line is [None], never an exception: callers degrade (skip the journal
    line, answer the request with a structured error). *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** the literal as written, checked against the grammar *)
  | String of string
  | Array of t list
  | Object of (string * t) list  (** members in document order *)

val parse : string -> t option
(** [None] on anything but exactly one JSON value with optional
    whitespace around it: trailing bytes, a raw control byte or an
    unpaired surrogate inside a string, arrays and objects nested more
    than 64 deep, or more than 2{^17} values in all (which bounds the
    memory a hostile line can make the reader build). *)

val find : t -> string -> t option
(** The first member with this name in document order, at any depth (a
    member's own value is searched before the members after it). *)

val to_string : t -> string option
val to_bool : t -> bool option

val to_int : t -> int option
(** An integer literal that fits an [int]. *)

val to_float : t -> float option

val string_field : string -> string -> string option
(** [string_field line key] is {!parse} then {!find}: the string value of
    the first member named [key]; [None] when the line does not parse,
    the member is absent or not a string.  Likewise {!int_field} and
    {!float_field}. *)

val int_field : string -> string -> int option
val float_field : string -> string -> float option

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
