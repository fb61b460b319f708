(** PowerShell abstract syntax trees.

    The node taxonomy mirrors [System.Management.Automation.Language]: the
    deobfuscator's logic is phrased in terms of the same node kinds the paper
    uses (PipelineAst, BinaryExpressionAst, ConvertExpressionAst,
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
  | Incr  (** [++] prefix *)
  | Decr

type quote_kind = Bare | Single_quoted | Double_quoted | Single_here | Double_here

(* Names.  The evaluator looks names up caselessly; the parser stores each
   name's lookup key next to the text as written, made once per parse
   ([Psparse.Names] makes them).  The evaluator dispatches on the key; the
   printer, scoring and the tracer read the text. *)

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
  | Pipeline of t list  (** PipelineAst; elements are commands or
                            command-expressions *)
  | Assignment of assign_op * t * t  (** AssignmentStatementAst *)
  | If_stmt of (t * t) list * t option  (** IfStatementAst: clauses, else *)
  | While_stmt of t * t  (** WhileStatementAst *)
  | Do_while_stmt of t * t
  | Do_until_stmt of t * t
  | For_stmt of t option * t option * t option * t  (** ForStatementAst *)
  | Foreach_stmt of t * t * t  (** ForEachStatementAst: var, collection, body *)
  | Switch_stmt of t * (t * t) list * t option  (** value, cases, default *)
  | Function_def of name * variable list * t  (** name, params, body block *)
  | Param_block of variable list
  | Return_stmt of t option
  | Break_stmt
  | Continue_stmt
  | Throw_stmt of t option
  | Exit_stmt of t option
  | Try_stmt of t * (string list * t) list * t option  (** body, catches, finally *)
  | Trap_stmt of t
  (* commands *)
  | Command of command  (** CommandAst *)
  | Command_expression of t  (** CommandExpressionAst: expression as a
                                 pipeline element *)
  (* expressions *)
  | Binary_expr of binop * bool option * t * t
      (** BinaryExpressionAst; the flag records explicit case sensitivity:
          [Some true] for [-creplace], [Some false] for [-ireplace] *)
  | Unary_expr of unop * t  (** UnaryExpressionAst *)
  | Postfix_expr of unop * t  (** [$i++] *)
  | Convert_expr of name * t  (** ConvertExpressionAst: [\[type\] expr] *)
  | Type_literal of name  (** TypeExpressionAst *)
  | Variable_expr of variable  (** VariableExpressionAst *)
  | Member_access of t * member * bool  (** MemberExpressionAst; true = [::] *)
  | Invoke_member of t * member * t list * bool
      (** InvokeMemberExpressionAst; true = [::] *)
  | Index_expr of t * t  (** IndexExpressionAst *)
  | String_const of string * quote_kind  (** StringConstantExpressionAst *)
  | Expandable_string of string * expand_part list
      (** ExpandableStringExpressionAst: processed value skeleton + parts *)
  | Number_const of number  (** ConstantExpressionAst *)
  | Array_literal of t list  (** ArrayLiteralAst: [a,b,c] *)
  | Array_expr of t list  (** ArrayExpressionAst: [@( )]; statements inside *)
  | Hash_literal of (t * t) list  (** HashtableAst *)
  | Sub_expr of t list  (** SubExpressionAst: [$( )]; statements inside *)
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
      (** first element: bareword string constant, or any expression after
          [&] / [.] *)
  | Elem_parameter of name * t option  (** [-Name] or [-Name:value] *)
  | Elem_argument of t
  | Elem_redirection of string

and member = Member_name of name | Member_dynamic of t

and expand_part =
  | Part_text of string
  | Part_variable of variable * Extent.t
  | Part_subexpr of t

(* ---------- constructors / accessors ---------- *)

let make node extent = { node; extent }

let command_name cmd =
  match cmd.cmd_elements with
  | Elem_name { node = String_const (s, _); _ } :: _ -> Some s
  | _ -> None

(* ---------- node-kind names (paper terminology) ---------- *)

let kind_name t =
  match t.node with
  | Script_block _ -> "ScriptBlockAst"
  | Named_block _ -> "NamedBlockAst"
  | Statement_block _ -> "StatementBlockAst"
  | Pipeline _ -> "PipelineAst"
  | Assignment _ -> "AssignmentStatementAst"
  | If_stmt _ -> "IfStatementAst"
  | While_stmt _ -> "WhileStatementAst"
  | Do_while_stmt _ -> "DoWhileStatementAst"
  | Do_until_stmt _ -> "DoUntilStatementAst"
  | For_stmt _ -> "ForStatementAst"
  | Foreach_stmt _ -> "ForEachStatementAst"
  | Switch_stmt _ -> "SwitchStatementAst"
  | Function_def _ -> "FunctionDefinitionAst"
  | Param_block _ -> "ParamBlockAst"
  | Return_stmt _ -> "ReturnStatementAst"
  | Break_stmt -> "BreakStatementAst"
  | Continue_stmt -> "ContinueStatementAst"
  | Throw_stmt _ -> "ThrowStatementAst"
  | Exit_stmt _ -> "ExitStatementAst"
  | Try_stmt _ -> "TryStatementAst"
  | Trap_stmt _ -> "TrapStatementAst"
  | Command _ -> "CommandAst"
  | Command_expression _ -> "CommandExpressionAst"
  | Binary_expr _ -> "BinaryExpressionAst"
  | Unary_expr _ -> "UnaryExpressionAst"
  | Postfix_expr _ -> "UnaryExpressionAst"
  | Convert_expr _ -> "ConvertExpressionAst"
  | Type_literal _ -> "TypeExpressionAst"
  | Variable_expr _ -> "VariableExpressionAst"
  | Member_access _ -> "MemberExpressionAst"
  | Invoke_member _ -> "InvokeMemberExpressionAst"
  | Index_expr _ -> "IndexExpressionAst"
  | String_const _ -> "StringConstantExpressionAst"
  | Expandable_string _ -> "ExpandableStringExpressionAst"
  | Number_const _ -> "ConstantExpressionAst"
  | Array_literal _ -> "ArrayLiteralAst"
  | Array_expr _ -> "ArrayExpressionAst"
  | Hash_literal _ -> "HashtableAst"
  | Sub_expr _ -> "SubExpressionAst"
  | Paren_expr _ -> "ParenExpressionAst"
  | Script_block_expr _ -> "ScriptBlockExpressionAst"

(* ---------- children ---------- *)

let option_to_list = function Some x -> [ x ] | None -> []

let children t =
  match t.node with
  | Script_block sb -> sb.sb_statements
  | Named_block (_, body) -> [ body ]
  | Statement_block stmts -> stmts
  | Pipeline elems -> elems
  | Assignment (_, lhs, rhs) -> [ lhs; rhs ]
  | If_stmt (clauses, else_) ->
      List.concat_map (fun (c, b) -> [ c; b ]) clauses @ option_to_list else_
  | While_stmt (cond, body) -> [ cond; body ]
  | Do_while_stmt (body, cond) -> [ body; cond ]
  | Do_until_stmt (body, cond) -> [ body; cond ]
  | For_stmt (init, cond, step, body) ->
      option_to_list init @ option_to_list cond @ option_to_list step @ [ body ]
  | Foreach_stmt (v, coll, body) -> [ v; coll; body ]
  | Switch_stmt (value, cases, default) ->
      (value :: List.concat_map (fun (c, b) -> [ c; b ]) cases)
      @ option_to_list default
  | Function_def (_, _, body) -> [ body ]
  | Param_block _ -> []
  | Return_stmt e -> option_to_list e
  | Break_stmt | Continue_stmt -> []
  | Throw_stmt e -> option_to_list e
  | Exit_stmt e -> option_to_list e
  | Try_stmt (body, catches, finally) ->
      (body :: List.map snd catches) @ option_to_list finally
  | Trap_stmt body -> [ body ]
  | Command cmd ->
      List.concat_map
        (function
          | Elem_name e -> [ e ]
          | Elem_parameter (_, arg) -> option_to_list arg
          | Elem_argument e -> [ e ]
          | Elem_redirection _ -> [])
        cmd.cmd_elements
  | Command_expression e -> [ e ]
  | Binary_expr (_, _, a, b) -> [ a; b ]
  | Unary_expr (_, e) -> [ e ]
  | Postfix_expr (_, e) -> [ e ]
  | Convert_expr (_, e) -> [ e ]
  | Type_literal _ -> []
  | Variable_expr _ -> []
  | Member_access (obj, m, _) -> (
      obj :: (match m with Member_dynamic e -> [ e ] | Member_name _ -> []))
  | Invoke_member (obj, m, args, _) ->
      (obj :: (match m with Member_dynamic e -> [ e ] | Member_name _ -> []))
      @ args
  | Index_expr (obj, idx) -> [ obj; idx ]
  | String_const _ -> []
  | Expandable_string (_, parts) ->
      List.concat_map
        (function
          | Part_text _ -> [] | Part_variable _ -> [] | Part_subexpr e -> [ e ])
        parts
  | Number_const _ -> []
  | Array_literal elems -> elems
  | Array_expr stmts -> stmts
  | Hash_literal pairs -> List.concat_map (fun (k, v) -> [ k; v ]) pairs
  | Sub_expr stmts -> stmts
  | Paren_expr e -> [ e ]
  | Script_block_expr sb -> sb.sb_statements

(* ---------- traversal ---------- *)

let rec iter_post_order f t =
  List.iter (iter_post_order f) (children t);
  f t

let rec fold_pre_order f acc t =
  let acc = f acc t in
  List.fold_left (fold_pre_order f) acc (children t)

(** Post-order fold that also passes the chain of ancestors (nearest
    first) — variable tracing needs the parent (assignment detection) and the
    enclosing loop/conditional context. *)
let fold_post_order_with_ancestors f acc t =
  let rec go ancestors acc t =
    let acc = List.fold_left (go (t :: ancestors)) acc (children t) in
    f ancestors acc t
  in
  go [] acc t

let count_nodes t = fold_pre_order (fun n _ -> n + 1) 0 t

(** Text of the node in the original source. *)
let text src t = Extent.text src t.extent
