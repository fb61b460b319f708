(** The interpreter — the reproduction of [ScriptBlock.Invoke].

    Expressions, pipelines with streaming enumeration, the cmdlets
    obfuscators emit, user functions, and control flow; execution is
    budgeted, and side effects go through {!Env.record}, so [Recovery] mode
    can never touch the outside world. *)

exception Return_exc of Psvalue.Value.t list
exception Break_exc
exception Continue_exc
exception Throw_exc of Psvalue.Value.t
exception Exit_exc

type ctx = {
  env : Env.t;
  src : string;
  src_exact : bool;
      (** [src] is the text the evaluated AST was parsed from, so a node's
          extent reads the node's own text there.  False inside functions
          and script blocks, whose extents may index another text: a
          script block literal's text read there depends on where the
          block sits, so a payload probe refuses the evaluation, and the
          sandbox looks no payload up ({!Env.payloads}). *)
}

val eval_expr : ctx -> Psast.Ast.t -> Psvalue.Value.t
(** Evaluate an expression node.  @raise Env.Eval_error and friends. *)

val eval_statement : ctx -> Psast.Ast.t -> Psvalue.Value.t list
(** Evaluate a statement, returning its output stream. *)

val run_ast : Env.t -> src:string -> Psast.Ast.t -> Psvalue.Value.t list
(** Evaluate a parsed script; [Return_exc]/[Exit_exc] are absorbed. *)

val parse_piece : string -> (Psast.Ast.t, string) result
(** Parse a piece, rendering a failure as the error text its evaluation
    reports ([syntax error at N: …], or [stack exhausted while parsing]).
    Pure and environment-independent: a caller may memoise it on the text
    and hand one parse to {!run_parsed} / {!invoke_parsed} in any number
    of environments and domains.  It is
    [Result.bind (lex_piece src) (parse_lexed_piece src)]. *)

val lex_piece : string -> (Pslex.Token.t list, string) result
(** The lexer run of {!parse_piece}, with a lexical error rendered as
    {!parse_piece} renders it. *)

val parse_lexed_piece :
  string -> Pslex.Token.t list -> (Psast.Ast.t, string) result
(** [parse_lexed_piece src toks] is {!parse_piece} [src] for the tokens
    [lex_piece src] returned: the parse without a second lexer run. *)

val run_parsed :
  Env.t -> src:string -> (Psast.Ast.t, string) result ->
  (Psvalue.Value.t list, string) result
(** Evaluate a parse of [src] (from {!parse_piece}, or any [Ok] parse of
    [src]) and return its output stream; every evaluation exception is
    rendered as an error message.  The [interp.eval] chaos probe is drawn
    first, also before a parse error is returned. *)

val run_script : Env.t -> string -> (Psvalue.Value.t list, string) result
(** [run_parsed env ~src (parse_piece src)]. *)

val invoke_parsed :
  Env.t -> src:string -> (Psast.Ast.t, string) result ->
  (Psvalue.Value.t, string) result
(** {!run_parsed} inside an [interp.invoke_piece] span, with the output
    collected as one value ([Null] / the value / an array). *)

val invoke_payload :
  Env.t -> src:string -> (Psast.Ast.t, string) result ->
  (Psvalue.Value.t, string) result * (string * Env.payload) option
(** {!invoke_parsed} on a [Recovery] environment under an {!Env.probe}:
    the same result, plus what a sandbox needs to reuse it
    ({!Env.payload}) and the key it is reused under (the
    {!Psast.Eval_digest.pipeline} of the statement's stages) when the
    piece is one pipeline statement and its evaluation was
    self-contained.  The recorded step count is that of
    the statement's pipeline alone, which is what the same text costs in
    place: as the argument of Invoke-Expression, or as the stages before
    [| iex]. *)

val invoke_piece : Env.t -> string -> (Psvalue.Value.t, string) result
(** Execute a recoverable piece and return its collected output — the
    paper's "Recovery Based on Invoke" (§III-B2):
    [invoke_parsed env ~src (parse_piece src)]. *)

val describe_exception : exn -> string option
(** Render the evaluator's exception family to a message; [None] for
    foreign exceptions. *)
