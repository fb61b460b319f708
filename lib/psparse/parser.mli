(** Recursive-descent parser for the PowerShell subset.

    Produces {!Psast.Ast.t} trees whose extents index the {e original}
    source, so every node's text can be replaced in place.  Operator
    precedence follows about_Operator_Precedence; newline handling follows
    PowerShell (a newline terminates a statement except right after an
    operator, pipe, comma or opening group). *)

type error = { message : string; position : int }

val parse : string -> (Psast.Ast.t, error) result
(** Parse a whole script into a [Script_block] node. *)

val parse_tokens : string -> Pslex.Token.t list -> (Psast.Ast.t, error) result
(** [parse_tokens src toks] parses [src] from [toks], which must be
    [Pslex.Lexer.tokenize src]: {!parse} without the lexer run, for a
    caller that already holds the tokens. *)

type parsed = {
  text : string;
  tokens : Pslex.Token.t list;
      (** the full lexer output, comments and line continuations included *)
  ast : Psast.Ast.t;
}
(** A text together with its one lex and its one parse — what a pipeline
    stage that validated its output hands to the next stage, so neither
    is recomputed for the same text. *)

val parse_full : string -> (parsed, error) result
(** {!parse}, keeping the token list it lexed. *)

val parse_exn : string -> Psast.Ast.t
(** @raise Failure on lexical or syntax errors. *)

val parse_fragment : src:string -> offset:int -> string -> (Psast.Ast.t, error) result
(** Parse [fragment], shifting every extent by [offset] so they index
    [src].  Used for the bodies of expandable strings. *)

val is_valid_syntax : string -> bool
(** True when the script both lexes and parses.  The deobfuscator checks
    this after every phase and reverts a phase that broke the script
    (paper §IV-A). *)
