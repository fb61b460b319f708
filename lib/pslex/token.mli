(** PowerShell tokens.

    Mirrors the attribute surface of
    [System.Management.Automation.PSParser.Tokenize]: every token exposes its
    kind, semantic {e content} (string contents without quotes, command names
    with backticks removed), the exact source {e text}, and its extent.  The
    token-parsing phase of the deobfuscator consumes exactly these
    attributes. *)

type kind =
  | Command  (** bareword in command position, e.g. [IeX] *)
  | Command_argument  (** bareword argument *)
  | Command_parameter  (** [-Name] or [-Name:] *)
  | Comment
  | Group_start  (** [( { $( @( @{] *)
  | Group_end  (** [) }] *)
  | Index_start  (** ["\["] in index position *)
  | Index_end  (** ["\]"] *)
  | Keyword
  | Line_continuation  (** backtick newline *)
  | Member  (** member name after [.] / [::], or hash key *)
  | New_line
  | Number
  | Operator
  | Statement_separator  (** [;] *)
  | String_single
  | String_double
  | String_single_here
  | String_double_here
  | Type_name  (** [\[System.Text.Encoding\]]; content is the inner name *)
  | Variable  (** [$name], [${name}], [$scope:name]; content is [scope:name] *)
  | Splat_variable  (** [@name] *)

type t = {
  kind : kind;
  content : string;
      (** semantic content: unquoted string value, backtick-free bareword,
          variable name without [$] *)
  text : string;  (** exact source slice *)
  extent : Pscommon.Extent.t;
}

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit

val is_string : t -> bool
(** Any of the four string kinds. *)
