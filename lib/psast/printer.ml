(** Canonical source rendering of an AST.

    [print] produces executable PowerShell from any tree this library can
    represent.  It is used for diagnostics and as a test oracle: for every
    script the parser accepts, [parse (print (parse s))] must produce a tree
    with the same shape — a strong whole-grammar property.

    Rendering is canonical, not source-preserving: the deobfuscator's
    in-place patching never uses it (extent splicing is what preserves
    untouched bytes). *)

let quote_single s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let quote_double s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "`\""
      | '`' -> Buffer.add_string buf "``"
      | '$' -> Buffer.add_string buf "`$"
      | '\n' -> Buffer.add_string buf "`n"
      | '\r' -> Buffer.add_string buf "`r"
      | '\t' -> Buffer.add_string buf "`t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let binop_text (op : Ast.binop) sensitivity =
  let prefix =
    match sensitivity with Some true -> "c" | Some false -> "i" | None -> ""
  in
  let base =
    match op with
    | Ast.Add -> "+"
    | Ast.Sub -> "-"
    | Ast.Mul -> "*"
    | Ast.Div -> "/"
    | Ast.Mod -> "%"
    | Ast.Format -> "-f"
    | Ast.Range -> ".."
    | Ast.Eq -> "-" ^ prefix ^ "eq"
    | Ast.Ne -> "-" ^ prefix ^ "ne"
    | Ast.Gt -> "-" ^ prefix ^ "gt"
    | Ast.Ge -> "-" ^ prefix ^ "ge"
    | Ast.Lt -> "-" ^ prefix ^ "lt"
    | Ast.Le -> "-" ^ prefix ^ "le"
    | Ast.Like -> "-" ^ prefix ^ "like"
    | Ast.Notlike -> "-" ^ prefix ^ "notlike"
    | Ast.Match -> "-" ^ prefix ^ "match"
    | Ast.Notmatch -> "-" ^ prefix ^ "notmatch"
    | Ast.Replace -> "-" ^ prefix ^ "replace"
    | Ast.Split -> "-" ^ prefix ^ "split"
    | Ast.Join -> "-join"
    | Ast.Contains -> "-" ^ prefix ^ "contains"
    | Ast.Notcontains -> "-" ^ prefix ^ "notcontains"
    | Ast.In_op -> "-" ^ prefix ^ "in"
    | Ast.Notin -> "-" ^ prefix ^ "notin"
    | Ast.Is_op -> "-is"
    | Ast.Isnot -> "-isnot"
    | Ast.As_op -> "-as"
    | Ast.Band -> "-band"
    | Ast.Bor -> "-bor"
    | Ast.Bxor -> "-bxor"
    | Ast.Shl -> "-shl"
    | Ast.Shr -> "-shr"
    | Ast.And_op -> "-and"
    | Ast.Or_op -> "-or"
    | Ast.Xor_op -> "-xor"
  in
  base

let assign_text = function
  | Ast.Assign -> "="
  | Ast.Plus_assign -> "+="
  | Ast.Minus_assign -> "-="
  | Ast.Times_assign -> "*="
  | Ast.Div_assign -> "/="
  | Ast.Mod_assign -> "%="

let variable_text (v : Ast.variable) =
  let sigil = if v.Ast.var_splat then "@" else "$" in
  let needs_braces =
    not
      (String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         v.Ast.var_name)
    && not (List.mem v.Ast.var_name [ "_"; "$"; "?"; "^" ])
  in
  if needs_braces then Printf.sprintf "%s{%s}" sigil v.Ast.var_name
  else sigil ^ v.Ast.var_name

let rec expr (t : Ast.t) =
  match t.Ast.node with
  | Ast.String_const (s, Ast.Bare) -> s
  | Ast.String_const (s, (Ast.Single_quoted | Ast.Single_here)) -> quote_single s
  | Ast.String_const (s, (Ast.Double_quoted | Ast.Double_here)) -> quote_double s
  | Ast.Expandable_string (_, parts) ->
      (* re-render from parts so interpolation stays live *)
      let buf = Buffer.create 32 in
      Buffer.add_char buf '"';
      let rec emit = function
        | [] -> ()
        | Ast.Part_text s :: rest ->
            String.iter
              (fun c ->
                match c with
                | '"' -> Buffer.add_string buf "`\""
                | '`' -> Buffer.add_string buf "``"
                | '$' -> Buffer.add_string buf "`$"
                | '\n' -> Buffer.add_string buf "`n"
                | '\r' -> Buffer.add_string buf "`r"
                | '\t' -> Buffer.add_string buf "`t"
                | c -> Buffer.add_char buf c)
              s;
            emit rest
        | Ast.Part_variable (v, _) :: rest ->
            (* brace the name when the following text would glue onto it *)
            let next_glues =
              match rest with
              | Ast.Part_text s :: _ when String.length s > 0 -> (
                  match s.[0] with
                  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
                  | _ -> false)
              | _ -> false
            in
            if next_glues then
              Buffer.add_string buf (Printf.sprintf "${%s}" v.Ast.var_name)
            else Buffer.add_string buf (variable_text v);
            emit rest
        | Ast.Part_subexpr e :: rest ->
            Buffer.add_string buf (expr e);
            emit rest
      in
      emit parts;
      Buffer.add_char buf '"';
      Buffer.contents buf
  | Ast.Number_const (Ast.Int_lit n) ->
      if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Ast.Number_const (Ast.Float_lit f) -> Printf.sprintf "%g" f
  | Ast.Variable_expr v -> variable_text v
  | Ast.Type_literal name -> "[" ^ name.Ast.written ^ "]"
  | Ast.Convert_expr (name, inner) -> "[" ^ name.Ast.written ^ "](" ^ expr inner ^ ")"
  | Ast.Unary_expr (op, inner) -> unop_text op ^ " (" ^ expr inner ^ ")"
  | Ast.Postfix_expr (Ast.Incr, inner) -> expr inner ^ "++"
  | Ast.Postfix_expr (_, inner) -> expr inner ^ "--"
  | Ast.Binary_expr (op, sens, a, b) ->
      "(" ^ expr a ^ " " ^ binop_text op sens ^ " " ^ expr b ^ ")"
  | Ast.Member_access (obj, m, static) ->
      expr obj ^ (if static then "::" else ".") ^ member m
  | Ast.Invoke_member (obj, m, args, static) ->
      expr obj
      ^ (if static then "::" else ".")
      ^ member m ^ "("
      ^ String.concat ", " (List.map expr args)
      ^ ")"
  | Ast.Index_expr (obj, idx) -> expr obj ^ "[" ^ expr idx ^ "]"
  | Ast.Array_literal elems -> String.concat ", " (List.map expr elems)
  | Ast.Array_expr stmts -> "@(" ^ String.concat "; " (List.map statement stmts) ^ ")"
  | Ast.Sub_expr stmts -> "$(" ^ String.concat "; " (List.map statement stmts) ^ ")"
  | Ast.Paren_expr inner -> "(" ^ statement inner ^ ")"
  | Ast.Hash_literal pairs ->
      "@{"
      ^ String.concat "; "
          (List.map (fun (k, v) -> expr k ^ " = " ^ statement v) pairs)
      ^ "}"
  | Ast.Script_block_expr sb -> "{ " ^ script_block_body sb ^ " }"
  | _ -> "(" ^ statement t ^ ")"

and unop_text = function
  | Ast.Not -> "-not"
  | Ast.Negate -> "-"
  | Ast.Unary_plus -> "+"
  | Ast.Bnot -> "-bnot"
  | Ast.Usplit -> "-split"
  | Ast.Ujoin -> "-join"
  | Ast.Incr -> "++"
  | Ast.Decr -> "--"

and member = function
  | Ast.Member_name n -> n.Ast.written
  | Ast.Member_dynamic e -> expr e

and command_element = function
  | Ast.Elem_name e -> expr e
  | Ast.Elem_parameter ({ Ast.written = p; _ }, Some v) -> p ^ (if String.length p > 0 && p.[String.length p - 1] = ':' then "" else " ") ^ expr v
  | Ast.Elem_parameter ({ Ast.written = p; _ }, None) -> p
  | Ast.Elem_argument a -> expr a
  | Ast.Elem_redirection r -> r

and command (cmd : Ast.command) =
  let prefix =
    match cmd.Ast.cmd_invocation with
    | Ast.Inv_normal -> ""
    | Ast.Inv_call -> "& "
    | Ast.Inv_dot -> ". "
  in
  prefix ^ String.concat " " (List.map command_element cmd.Ast.cmd_elements)

and statement (t : Ast.t) =
  match t.Ast.node with
  | Ast.Script_block sb -> script_block_body sb
  | Ast.Named_block (name, body) -> name ^ " " ^ block body
  | Ast.Statement_block stmts ->
      "{ " ^ String.concat "; " (List.map statement stmts) ^ " }"
  | Ast.Pipeline elems ->
      String.concat " | "
        (List.map
           (fun e ->
             match e.Ast.node with
             | Ast.Command cmd -> command cmd
             | Ast.Command_expression inner -> expr inner
             | _ -> expr e)
           elems)
  | Ast.Assignment (op, lhs, rhs) ->
      expr lhs ^ " " ^ assign_text op ^ " " ^ statement rhs
  | Ast.If_stmt (clauses, else_branch) ->
      let clause_text i (cond, body) =
        (if i = 0 then "if" else "elseif")
        ^ " (" ^ statement cond ^ ") " ^ block body
      in
      String.concat " " (List.mapi clause_text clauses)
      ^ (match else_branch with
        | Some b -> " else " ^ block b
        | None -> "")
  | Ast.While_stmt (cond, body) -> "while (" ^ statement cond ^ ") " ^ block body
  | Ast.Do_while_stmt (body, cond) ->
      "do " ^ block body ^ " while (" ^ statement cond ^ ")"
  | Ast.Do_until_stmt (body, cond) ->
      "do " ^ block body ^ " until (" ^ statement cond ^ ")"
  | Ast.For_stmt (init, cond, step, body) ->
      Printf.sprintf "for (%s; %s; %s) %s"
        (match init with Some s -> statement s | None -> "")
        (match cond with Some s -> statement s | None -> "")
        (match step with Some s -> statement s | None -> "")
        (block body)
  | Ast.Foreach_stmt (v, coll, body) ->
      Printf.sprintf "foreach (%s in %s) %s" (expr v) (statement coll) (block body)
  | Ast.Switch_stmt (value, cases, default) ->
      "switch (" ^ statement value ^ ") { "
      ^ String.concat " "
          (List.map (fun (p, b) -> expr p ^ " " ^ block b) cases)
      ^ (match default with
        | Some b -> " default " ^ block b
        | None -> "")
      ^ " }"
  | Ast.Function_def (name, params, body) ->
      Printf.sprintf "function %s%s %s" name.Ast.written
        (if params = [] then ""
         else "(" ^ String.concat ", " (List.map (fun p -> "$" ^ p.Ast.var_name) params) ^ ")")
        (block body)
  | Ast.Param_block names ->
      "param(" ^ String.concat ", " (List.map (fun p -> "$" ^ p.Ast.var_name) names) ^ ")"
  | Ast.Return_stmt (Some v) -> "return " ^ statement v
  | Ast.Return_stmt None -> "return"
  | Ast.Break_stmt -> "break"
  | Ast.Continue_stmt -> "continue"
  | Ast.Throw_stmt (Some v) -> "throw " ^ statement v
  | Ast.Throw_stmt None -> "throw"
  | Ast.Exit_stmt (Some v) -> "exit " ^ statement v
  | Ast.Exit_stmt None -> "exit"
  | Ast.Try_stmt (body, catches, finally) ->
      "try " ^ block body
      ^ String.concat ""
          (List.map
             (fun (types, b) ->
               " catch "
               ^ String.concat ""
                   (List.map (fun t -> "[" ^ t ^ "] ") types)
               ^ block b)
             catches)
      ^ (match finally with
        | Some b -> " finally " ^ block b
        | None -> "")
  | Ast.Trap_stmt body -> "trap " ^ block body
  | Ast.Command cmd -> command cmd
  | Ast.Command_expression e -> expr e
  | _ -> expr t

and block (t : Ast.t) =
  match t.Ast.node with
  | Ast.Statement_block stmts | Ast.Script_block { Ast.sb_statements = stmts; _ } ->
      "{ " ^ String.concat "; " (List.map statement stmts) ^ " }"
  | _ -> "{ " ^ statement t ^ " }"

and script_block_body (sb : Ast.script_block) =
  let params =
    if sb.Ast.sb_params = [] then ""
    else
      "param("
      ^ String.concat ", " (List.map (fun p -> "$" ^ p.Ast.var_name) sb.Ast.sb_params)
      ^ "); "
  in
  params ^ String.concat "; " (List.map statement sb.Ast.sb_statements)

(** Render a whole tree as a one-statement-per-line script. *)
let print (t : Ast.t) =
  match t.Ast.node with
  | Ast.Script_block sb ->
      let params =
        if sb.Ast.sb_params = [] then ""
        else
          "param("
          ^ String.concat ", " (List.map (fun p -> "$" ^ p.Ast.var_name) sb.Ast.sb_params)
          ^ ")\n"
      in
      params
      ^ String.concat "\n" (List.map statement sb.Ast.sb_statements)
      ^ "\n"
  | _ -> statement t ^ "\n"
