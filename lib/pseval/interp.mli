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

type ctx = { env : Env.t; src : string }

val eval_expr : ctx -> Psast.Ast.t -> Psvalue.Value.t
(** Evaluate an expression node.  @raise Env.Eval_error and friends. *)

val eval_statement : ctx -> Psast.Ast.t -> Psvalue.Value.t list
(** Evaluate a statement, returning its output stream. *)

val run_ast : Env.t -> src:string -> Psast.Ast.t -> Psvalue.Value.t list
(** Evaluate a parsed script; [Return_exc]/[Exit_exc] are absorbed. *)

val run_script : Env.t -> string -> (Psvalue.Value.t list, string) result
(** Parse and evaluate; every evaluation exception is rendered as an error
    message. *)

val run_parsed :
  Env.t -> src:string -> Psast.Ast.t -> (Psvalue.Value.t list, string) result
(** {!run_script} on a script already parsed ([ast] must be the parse of
    [src]): the [interp.eval] chaos probe is drawn first, exactly as there,
    and evaluation errors read the same. *)

val invoke_piece : Env.t -> string -> (Psvalue.Value.t, string) result
(** Execute a recoverable piece and return its collected output as one
    value ([Null] / the value / an array) — the paper's "Recovery Based on
    Invoke" (§III-B2). *)

val eval_expression_ast : Env.t -> src:string -> Psast.Ast.t -> Psvalue.Value.t

(** {2 Entry points for {!Compile}}

    The closure compiler specializes the common node shapes and must defer
    to the interpreter's exact semantics for everything it pre-resolves
    only partially (dynamic member names, script-block invocation, .NET
    object construction). *)

val read_variable : ctx -> string -> Psvalue.Value.t
(** [$name] read with the automatic-variable special cases ([$args],
    [$input], [$ofs]) and mode-dependent undefined-variable behavior. *)

val collect : Psvalue.Value.t list ref -> Psvalue.Value.t list -> unit
(** Add one loop iteration's output to a reversed accumulator; the loop
    returns [List.rev] of it, so gathering stays linear in the number of
    iterations. *)

val invoke_script_block :
  ctx -> Psvalue.Value.sb -> Psvalue.Value.t list -> input:Psvalue.Value.t list ->
  Psvalue.Value.t list
(** Run a script-block value in a fresh scope with bound parameters. *)

val construct_object : ctx -> string -> Psvalue.Value.t list -> Psvalue.Value.t
(** [New-Object] / [[type]::new()] construction of the simulated objects. *)

val type_display_name : string -> string
(** Display name of a type literal ([[text.encoding]] → ["System.Text.Encoding"]). *)

val strip_braces : string -> string
(** Script-block source text with its outer braces removed. *)

val describe_exception : exn -> string option
(** Render the evaluator's exception family to a message; [None] for
    foreign exceptions. *)
