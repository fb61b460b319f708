(** PowerShell abstract syntax trees.

    The node taxonomy mirrors [System.Management.Automation.Language]: the
    deobfuscator's logic is phrased in terms of the same node kinds the
    paper uses (PipelineAst, BinaryExpressionAst, ConvertExpressionAst,
    InvokeMemberExpressionAst, SubExpressionAst, …).  Every node carries its
    source extent, which is what allows recovery results to be spliced back
    {e in place}. *)

open Pscommon

type assign_op = Assign | Plus_assign | Minus_assign | Times_assign | Div_assign | Mod_assign

type binop =
  | Add | Sub | Mul | Div | Mod
  | Format  (** [-f] *)
  | Range  (** [..] *)
  | Eq | Ne | Gt | Ge | Lt | Le
  | Like | Notlike | Match | Notmatch
  | Replace  (** [-replace] and its c/i variants *)
  | Split | Join
  | Contains | Notcontains | In_op | Notin
  | Is_op | Isnot | As_op
  | Band | Bor | Bxor | Shl | Shr
  | And_op | Or_op | Xor_op

type unop =
  | Not  (** [!] / [-not] *)
  | Negate
  | Unary_plus
  | Bnot
  | Usplit  (** unary [-split] *)
  | Ujoin  (** unary [-join] *)
  | Incr  (** [++] *)
  | Decr

type quote_kind = Bare | Single_quoted | Double_quoted | Single_here | Double_here

(** {2 Names}

    The evaluator looks names up caselessly.  The parser stores each name's
    lookup key next to the text as written, made once per parse
    ([Psparse.Names] makes them); the evaluator dispatches on the key, and
    the printer, scoring and the tracer read the text. *)

type name = {
  written : string;  (** as in the source *)
  key : string;  (** the evaluator's lookup key *)
}

type drive =
  | No_drive
  | Env_drive  (** [$env:x]: the simulated environment *)
  | Global_drive  (** [global:], [script:]: the global scope *)
  | Local_drive  (** [local:], [private:], [variable:]: the current scope *)
  | Other_drive  (** any other drive: reads find nothing *)

type var_key = {
  drive : drive;
  scope_key : string;
      (** the scope-table key: the folded name with its drive split off
          (the whole folded name under [Other_drive]) *)
  folded : string;  (** the whole name folded, drive kept *)
}

type variable = {
  var_name : string;  (** name without [$]; ["env:path"] keeps the drive *)
  var_splat : bool;
  var_key : var_key;
}

type command_key = {
  cmd_name : string;  (** as written *)
  cmd_folded : string;  (** folded: the function-table key *)
  cmd_builtin : string;  (** alias-resolved and folded: the builtin it runs *)
}

type number = Int_lit of int | Float_lit of float

type invocation = Inv_normal | Inv_call  (** [&] *) | Inv_dot  (** [.] *)

type t = { node : node; extent : Extent.t }

and node =
  (* structure *)
  | Script_block of script_block  (** ScriptBlockAst *)
  | Named_block of string * t  (** NamedBlockAst: [begin]/[process]/[end] *)
  | Statement_block of t list  (** StatementBlockAst: [{ stmts }] *)
  | Pipeline of t list  (** PipelineAst *)
  | Assignment of assign_op * t * t  (** AssignmentStatementAst *)
  | If_stmt of (t * t) list * t option  (** IfStatementAst: clauses, else *)
  | While_stmt of t * t  (** WhileStatementAst *)
  | Do_while_stmt of t * t
  | Do_until_stmt of t * t
  | For_stmt of t option * t option * t option * t  (** ForStatementAst *)
  | Foreach_stmt of t * t * t  (** ForEachStatementAst: var, collection, body *)
  | Switch_stmt of t * (t * t) list * t option  (** value, cases, default *)
  | Function_def of name * variable list * t
      (** name (key: folded), params, body block *)
  | Param_block of variable list
  | Return_stmt of t option
  | Break_stmt
  | Continue_stmt
  | Throw_stmt of t option
  | Exit_stmt of t option
  | Try_stmt of t * (string list * t) list * t option
  | Trap_stmt of t
  (* commands *)
  | Command of command  (** CommandAst *)
  | Command_expression of t  (** CommandExpressionAst *)
  (* expressions *)
  | Binary_expr of binop * bool option * t * t
      (** BinaryExpressionAst; the flag records explicit case sensitivity:
          [Some true] for [-creplace], [Some false] for [-ireplace] *)
  | Unary_expr of unop * t  (** UnaryExpressionAst *)
  | Postfix_expr of unop * t  (** [$i++] *)
  | Convert_expr of name * t
      (** ConvertExpressionAst: [\[type\] expr]; the key is the type name
          folded, without [System.] and blanks *)
  | Type_literal of name  (** TypeExpressionAst; keyed as in [Convert_expr] *)
  | Variable_expr of variable  (** VariableExpressionAst *)
  | Member_access of t * member * bool  (** MemberExpressionAst; true = [::] *)
  | Invoke_member of t * member * t list * bool
      (** InvokeMemberExpressionAst; true = [::] *)
  | Index_expr of t * t  (** IndexExpressionAst *)
  | String_const of string * quote_kind  (** StringConstantExpressionAst *)
  | Expandable_string of string * expand_part list
      (** ExpandableStringExpressionAst *)
  | Number_const of number  (** ConstantExpressionAst *)
  | Array_literal of t list  (** ArrayLiteralAst *)
  | Array_expr of t list  (** ArrayExpressionAst: [@( )] *)
  | Hash_literal of (t * t) list  (** HashtableAst *)
  | Sub_expr of t list  (** SubExpressionAst: [$( )] *)
  | Paren_expr of t  (** ParenExpressionAst *)
  | Script_block_expr of script_block  (** ScriptBlockExpressionAst *)

and script_block = {
  sb_params : variable list;  (** param(...) names, if any *)
  sb_statements : t list;
}

and command = {
  cmd_invocation : invocation;
  cmd_elements : command_element list;
  cmd_key : command_key option;  (** [Some] when the name is a bareword *)
}

and command_element =
  | Elem_name of t
  | Elem_parameter of name * t option
      (** [-Name] or [-Name:value]; the key is the name folded, without its
          dash and colon *)
  | Elem_argument of t
  | Elem_redirection of string

and member = Member_name of name  (** key: folded *) | Member_dynamic of t

and expand_part =
  | Part_text of string
  | Part_variable of variable * Extent.t
  | Part_subexpr of t

val make : node -> Extent.t -> t

val command_name : command -> string option
(** The bareword command name, when the command has one. *)

val kind_name : t -> string
(** The official AST class name ("PipelineAst", "BinaryExpressionAst", …) —
    the vocabulary the paper's method is written in. *)

val children : t -> t list

val iter_post_order : (t -> unit) -> t -> unit

val fold_pre_order : ('a -> t -> 'a) -> 'a -> t -> 'a

val fold_post_order_with_ancestors : (t list -> 'a -> t -> 'a) -> 'a -> t -> 'a
(** Post-order fold that also passes the chain of ancestors (nearest
    first) — variable tracing needs the parent (assignment detection) and
    the enclosing loop/conditional context. *)

val count_nodes : t -> int

val text : string -> t -> string
(** The node's text in the original source. *)
