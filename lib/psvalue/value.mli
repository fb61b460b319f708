(** PowerShell runtime values.

    The interpreter only ever executes {e recoverable pieces} — code whose
    result should be a string, number or simple collection — so the value
    model covers PowerShell's primitives, arrays, hashtables, script blocks
    and the handful of .NET object kinds that obfuscation recovery code
    touches (streams, encodings, WebClient). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Char of char
  | Arr of t array  (** mutable on purpose: [\[array\]::Reverse] mutates *)
  | Hash of (t * t) list
  | Script_block of sb
  | Secure_string of string
      (** simulation keeps the plaintext; [Marshal::PtrToStringAuto] round
          trips recover it *)
  | Obj of ps_object

and sb = {
  sb_ast : Psast.Ast.script_block;
  sb_text : string;  (** the block's text, braces stripped *)
  sb_src : string;
      (** the text [sb_ast]'s extents index: the source a literal was
          sliced from, or [sb_text] itself for a block parsed from it *)
}

and ps_object = { otype : string; okind : object_kind }

and object_kind =
  | Web_client
  | Memory_stream of stream_state
  | Deflate_stream of stream_state  (** holds already-inflated data *)
  | Gzip_stream of stream_state
  | Stream_reader of stream_state
  | Encoding_obj of encoding_name
  | Bstr of string  (** result of [SecureStringToBSTR] *)
  | Generic  (** only its type name is known — [ToString] yields it *)

and stream_state = { mutable data : string; mutable pos : int }

and encoding_name = Enc_unicode | Enc_utf8 | Enc_ascii | Enc_default | Enc_utf32

exception Conversion_error of string

(** {1 Collections} *)

val of_list : t list -> t
(** [\[\]] is [Null], a singleton is its element, anything longer an
    array — how pipeline output collapses to a single value. *)

val of_items : t -> t
(** [of_list (to_list v)]: what a pipeline of [v]'s items yields.  An
    array of two or more comes back as it is, so only for an array no
    other value holds. *)

val array_of_list : t list -> t array

val init_array : int -> (int -> t) -> t array

val map_array : ('a -> t) -> 'a array -> t array
(** [Array.of_list], [Array.init] and [Array.map] for values, the
    elements computed in the same order.  The array starts full of
    [Null], so making one longer than 256 words forces no minor
    collection (the stdlib's start full of the first element, and a young
    first element makes the runtime empty the minor heap first). *)

val of_char : char -> t
(** [Char c], from a table built once: no allocation. *)

val of_int : int -> t
(** [Int n], from a table built once for [0 <= n < 256]. *)

val to_list : t -> t list
(** Inverse-ish: [Null] enumerates to nothing, arrays to their elements,
    scalars to themselves. *)

(** {1 Conversions (PowerShell semantics)} *)

val type_name : t -> string
(** .NET-style type name, e.g. ["System.Int32"]. *)

val encoding_type_name : encoding_name -> string

val to_string : t -> string
(** PowerShell stringification: [Null] is [""], booleans are
    ["True"]/["False"], arrays join with spaces, objects print their type
    name, a script block its source text (counted by
    {!script_block_text_reads}). *)

val script_block_text_reads : unit -> int
(** How many times {!to_string} has returned a script block's text in the
    calling domain.  The text is the block's source as spelled, so an
    evaluation during which the count moved may depend on spelling that
    its parse does not record. *)

val float_to_string : float -> string
(** Culture-invariant, integral floats without a decimal point. *)

val to_int : t -> int
(** Parses hex strings (["0x4B"]), trims whitespace, takes char code
    points.  @raise Conversion_error when there is no numeric reading. *)

val to_float : t -> float
val to_bool : t -> bool
(** PowerShell truthiness: empty string/array and zero are false; a
    singleton array delegates to its element. *)

val to_char : t -> char
(** Code points and single-character strings.  @raise Conversion_error. *)

(** {1 Byte strings} *)

val bytes_to_value : string -> t
(** A byte string as an [Int] array — the shape
    [\[Convert\]::FromBase64String] returns. *)

val value_to_bytes : t -> string
(** Strings pass through; arrays must hold bytes/chars.
    @raise Conversion_error. *)

val chars_to_value : string -> t
(** A string as a [Char] array ([\[char\[\]\]] cast). *)

(** {1 Comparison} *)

val equal_loose : ?case_sensitive:bool -> t -> t -> bool
(** [-eq] semantics: the left operand's type drives coercion; strings
    compare caselessly unless [case_sensitive]. *)

val compare_loose : ?case_sensitive:bool -> t -> t -> int
(** Ordering for [-lt]/[-gt]; numeric left operands coerce the right.
    @raise Conversion_error on unorderable values. *)

(** {1 Source rendering (recovery results)} *)

val quote_single : string -> string
(** Single-quoted PowerShell literal with [''] escaping. *)

val to_source_opt : t -> string option
(** Render a recovery result back into script text: strings single-quoted,
    numbers bare, string arrays as literals.  [None] when the value has no
    faithful source form (objects, hashtables, control characters) — the
    paper keeps the obfuscated piece in that case (§III-B2). *)

val pp : Format.formatter -> t -> unit
