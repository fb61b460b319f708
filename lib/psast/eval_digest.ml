(* The encoding is prefix-free: every node starts with its own tag, strings
   carry their length and lists their count, so two trees encode alike only
   when they agree in every field written here. *)

open Ast

let encode ~on_command elems =
  let b = Buffer.create 128 in
  let tag c = Buffer.add_char b c in
  let str s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let bool x = tag (if x then '1' else '0') in
  let list f l =
    Buffer.add_string b (string_of_int (List.length l));
    Buffer.add_char b ';';
    List.iter f l
  in
  let opt f = function None -> tag '-' | Some x -> tag '+'; f x in
  (* the folded name determines the drive and the scope key *)
  let var (v : variable) = bool v.var_splat; str v.var_key.folded in
  let rec node (t : t) =
    match t.node with
    | Script_block sb -> tag 'S'; script_block sb
    | Named_block (n, body) ->
        tag 'N'; str (String.lowercase_ascii n); node body
    | Statement_block l -> tag 'B'; list node l
    | Pipeline l -> tag 'P'; list node l
    | Assignment (op, l, r) ->
        tag 'A'; str (Printer.assign_text op); node l; node r
    | If_stmt (clauses, els) ->
        tag 'I'; list (fun (c, body) -> node c; node body) clauses; opt node els
    | While_stmt (c, body) -> tag 'W'; node c; node body
    | Do_while_stmt (body, c) -> tag 'D'; node body; node c
    | Do_until_stmt (body, c) -> tag 'U'; node body; node c
    | For_stmt (init, c, step, body) ->
        tag 'F'; opt node init; opt node c; opt node step; node body
    | Foreach_stmt (v, coll, body) -> tag 'O'; node v; node coll; node body
    | Switch_stmt (v, cases, default) ->
        tag 'Z'; node v; list (fun (pat, body) -> node pat; node body) cases;
        opt node default
    | Function_def (name, params, body) ->
        tag 'G'; str name.key; list var params; node body
    | Param_block params -> tag 'Q'; list var params
    | Return_stmt v -> tag 'R'; opt node v
    | Break_stmt -> tag 'K'
    | Continue_stmt -> tag 'J'
    | Throw_stmt v -> tag 'T'; opt node v
    | Exit_stmt v -> tag 'X'; opt node v
    | Try_stmt (body, catches, finally) ->
        tag 'Y'; node body;
        list (fun (types, handler) -> list str types; node handler) catches;
        opt node finally
    | Trap_stmt body -> tag 'V'; node body
    | Command c -> command c
    | Command_expression e -> tag 'E'; node e
    | Binary_expr (op, sensitivity, l, r) ->
        tag 'b'; str (Printer.binop_text op None);
        opt bool sensitivity; node l; node r
    | Unary_expr (op, e) -> tag 'u'; str (Printer.unop_text op); node e
    | Postfix_expr (op, e) -> tag 'x'; str (Printer.unop_text op); node e
    | Convert_expr (ty, e) -> tag 'v'; str ty.key; node e
    | Type_literal ty -> tag 't'; str ty.key
    | Variable_expr v -> tag '$'; var v
    | Member_access (obj, m, static) -> tag '.'; node obj; member m; bool static
    | Invoke_member (obj, m, args, static) ->
        tag '('; node obj; member m; list node args; bool static
    | Index_expr (obj, i) -> tag '['; node obj; node i
    | String_const (s, _) -> tag 's'; str s
    | Expandable_string (_, parts) -> tag 'e'; list part parts
    | Number_const (Int_lit n) -> tag 'i'; str (string_of_int n)
    | Number_const (Float_lit f) ->
        tag 'f'; str (Int64.to_string (Int64.bits_of_float f))
    | Array_literal l -> tag ','; list node l
    | Array_expr l -> tag '@'; list node l
    | Hash_literal pairs -> tag 'h'; list (fun (k, v) -> node k; node v) pairs
    | Sub_expr l -> tag 'm'; list node l
    | Paren_expr e -> tag 'p'; node e
    | Script_block_expr sb -> tag '{'; script_block sb
  and script_block sb = list var sb.sb_params; list node sb.sb_statements
  and command c =
    tag 'C';
    tag
      (match c.cmd_invocation with
      | Inv_normal -> 'n'
      | Inv_call -> '&'
      | Inv_dot -> 'd');
    (* a bareword name is dispatched on its keys alone: the function
       table's key goes to [on_command], the builtin's into the digest *)
    let named =
      match c.cmd_key with
      | Some k ->
          on_command k.cmd_folded;
          tag 'k'; str k.cmd_builtin;
          true
      | None -> tag 'c'; false
    in
    list (element ~named) c.cmd_elements
  and element ~named = function
    | Elem_name e -> if named then tag 'N' else (tag 'n'; node e)
    | Elem_parameter (p, v) -> tag 'p'; str p.key; opt node v
    | Elem_argument a -> tag 'a'; node a
    | Elem_redirection r -> tag 'r'; str r
  and member = function
    | Member_name n -> tag 'M'; str n.key
    | Member_dynamic e -> tag 'D'; node e
  and part = function
    | Part_text s -> tag 'T'; str s
    | Part_variable (v, _) -> tag '$'; var v
    | Part_subexpr e -> tag 'S'; node e
  in
  (* a stage evaluates an expression alike whether or not the parser
     wrapped it in a CommandExpressionAst: an Invoke-Expression argument
     is the bare expression that, parsed on its own, is wrapped *)
  list
    (fun (t : t) ->
      match t.node with
      | Command_expression e -> tag 'E'; node e
      | Command c -> command c
      | _ -> tag 'E'; node t)
    elems;
  Buffer.contents b

let pipeline elems = encode ~on_command:ignore elems

let site elems =
  let names = ref [] in
  let digest =
    encode
      ~on_command:(fun n -> if not (List.mem n !names) then names := n :: !names)
      elems
  in
  (digest, !names)
