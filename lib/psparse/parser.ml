open Pscommon
module T = Pslex.Token
module A = Psast.Ast

type error = { message : string; position : int }

exception Err of error

let err pos message = raise (Err { message; position = pos })

type state = {
  src : string;
  toks : T.t array;
  mutable pos : int;
  mutable last_stop : int;  (* stop offset of the last consumed token *)
  mutable no_comma : bool;
      (* inside a method argument list commas separate arguments, so the
         expression grammar must not fold them into array literals; any
         nested group resets this *)
}

(* ---------- token helpers ---------- *)

let at_end st = st.pos >= Array.length st.toks
let peek st = if at_end st then None else Some st.toks.(st.pos)
let peek2 st = if st.pos + 1 >= Array.length st.toks then None else Some st.toks.(st.pos + 1)

let cur_position st =
  match peek st with
  | Some t -> t.T.extent.Extent.start
  | None -> String.length st.src

let advance st =
  if at_end st then err (cur_position st) "unexpected end of script";
  let t = st.toks.(st.pos) in
  st.pos <- st.pos + 1;
  st.last_stop <- t.T.extent.Extent.stop;
  t

let kind_is st k = match peek st with Some t -> t.T.kind = k | None -> false

let op_is st s =
  match peek st with
  | Some { T.kind = T.Operator; content; _ } -> String.equal content s
  | _ -> false

let group_start_is st s =
  match peek st with
  | Some { T.kind = T.Group_start; content; _ } -> String.equal content s
  | _ -> false

let group_end_is st s =
  match peek st with
  | Some { T.kind = T.Group_end; content; _ } -> String.equal content s
  | _ -> false

let keyword_is st s =
  match peek st with
  | Some { T.kind = T.Keyword; content; _ } -> Strcase.equal content s
  | _ -> false

let expect_group_end st s =
  match peek st with
  | Some { T.kind = T.Group_end; content; _ } when content = s ->
      ignore (advance st)
  | _ -> err (cur_position st) (Printf.sprintf "expected '%s'" s)

let expect_op st s =
  if op_is st s then ignore (advance st)
  else err (cur_position st) (Printf.sprintf "expected '%s'" s)

let skip_newlines st =
  while kind_is st T.New_line do
    ignore (advance st)
  done

let skip_separators st =
  while kind_is st T.New_line || kind_is st T.Statement_separator do
    ignore (advance st)
  done

let mark st = cur_position st

let node_here st start node =
  (* a node that consumed no tokens (empty block at end of a fragment) gets
     a zero-width extent *)
  let stop = max start st.last_stop in
  A.make node (Extent.make ~start ~stop)

(* ---------- numbers ---------- *)

let parse_number_content pos content =
  let lower = Strcase.lower content in
  let sign, body =
    if String.length lower > 0 && lower.[0] = '-' then
      (-1., String.sub lower 1 (String.length lower - 1))
    else (1., lower)
  in
  let body, mult =
    let strip suffix m =
      if Strcase.ends_with ~suffix body then
        Some (String.sub body 0 (String.length body - String.length suffix), m)
      else None
    in
    match
      List.find_map
        (fun (s, m) -> strip s m)
        [ ("kb", 1024.); ("mb", 1048576.); ("gb", 1073741824.);
          ("tb", 1099511627776.); ("pb", 1125899906842624.); ("l", 1.); ("d", 1.) ]
    with
    | Some (b, m) -> (b, m)
    | None -> (body, 1.)
  in
  if String.length body > 2 && body.[0] = '0' && body.[1] = 'x' then
    match int_of_string_opt body with
    | Some n -> A.Int_lit (int_of_float (sign *. float_of_int n *. mult))
    | None -> err pos (Printf.sprintf "bad hex literal %s" content)
  else if String.contains body '.' || String.contains body 'e' then
    match float_of_string_opt body with
    | Some f ->
        let v = sign *. f *. mult in
        if Float.is_integer v && mult > 1. then A.Int_lit (int_of_float v)
        else A.Float_lit v
    | None -> err pos (Printf.sprintf "bad float literal %s" content)
  else
    match int_of_string_opt body with
    | Some n ->
        let v = sign *. float_of_int n *. mult in
        A.Int_lit (int_of_float v)
    | None -> err pos (Printf.sprintf "bad numeric literal %s" content)

(* ---------- operators ---------- *)

(* maps an operator token content (already lowercased by the lexer) to a
   binop plus explicit case-sensitivity flag *)
let binop_of_content content =
  let lookup bare =
    match bare with
    | "-eq" -> Some A.Eq
    | "-ne" -> Some A.Ne
    | "-gt" -> Some A.Gt
    | "-ge" -> Some A.Ge
    | "-lt" -> Some A.Lt
    | "-le" -> Some A.Le
    | "-like" -> Some A.Like
    | "-notlike" -> Some A.Notlike
    | "-match" -> Some A.Match
    | "-notmatch" -> Some A.Notmatch
    | "-replace" -> Some A.Replace
    | "-split" -> Some A.Split
    | "-join" -> Some A.Join
    | "-contains" -> Some A.Contains
    | "-notcontains" -> Some A.Notcontains
    | "-in" -> Some A.In_op
    | "-notin" -> Some A.Notin
    | "-is" -> Some A.Is_op
    | "-isnot" -> Some A.Isnot
    | "-as" -> Some A.As_op
    | "-band" -> Some A.Band
    | "-bor" -> Some A.Bor
    | "-bxor" -> Some A.Bxor
    | "-shl" -> Some A.Shl
    | "-shr" -> Some A.Shr
    | _ -> None
  in
  (* exact spellings first: '-contains' must not lose its 'c' to the
     case-sensitivity prefix, nor '-isnot' its 'i' *)
  match lookup content with
  | Some op -> Some (op, None)
  | None ->
      if String.length content > 2 && content.[0] = '-' then
        let w = String.sub content 1 (String.length content - 1) in
        let stripped = "-" ^ String.sub w 1 (String.length w - 1) in
        if w.[0] = 'c' then Option.map (fun op -> (op, Some true)) (lookup stripped)
        else if w.[0] = 'i' then Option.map (fun op -> (op, Some false)) (lookup stripped)
        else None
      else None

(* ---------- forward declarations via recursion ---------- *)

let rec parse_script_block st ~closing =
  let start = mark st in
  skip_separators st;
  let params =
    if keyword_is st "param" then parse_param_keyword st else []
  in
  let stmts = parse_statement_list st ~closing in
  node_here st start (A.Script_block { sb_params = params; sb_statements = stmts })

and parse_param_keyword st =
  ignore (advance st);
  (* 'param' *)
  skip_newlines st;
  if group_start_is st "(" then begin
    ignore (advance st);
    let names = ref [] in
    let depth = ref 1 in
    while !depth > 0 && not (at_end st) do
      let t = advance st in
      match t.T.kind with
      | T.Group_start -> incr depth
      | T.Group_end -> decr depth
      | T.Variable -> if !depth = 1 then names := t.T.content :: !names
      | _ -> ()
    done;
    List.rev !names
  end
  else []

and parse_statement_list st ~closing =
  let stmts = ref [] in
  let continue = ref true in
  while !continue do
    skip_separators st;
    match peek st with
    | None -> continue := false
    | Some { T.kind = T.Group_end; content; _ } when closing = Some content ->
        continue := false
    | Some { T.kind = T.Group_end; _ } when closing = None ->
        err (cur_position st) "unbalanced group end"
    | Some _ ->
        stmts := parse_statement st :: !stmts;
        (* a statement must be followed by a separator, the closing group or
           EOF — unless it ended with '}' (blocks chain freely) *)
        (match peek st with
        | None | Some { T.kind = T.New_line | T.Statement_separator | T.Group_end; _ } ->
            ()
        | Some t ->
            let ended_with_brace =
              st.pos > 0
              &&
              let prev = st.toks.(st.pos - 1) in
              prev.T.kind = T.Group_end && prev.T.content = "}"
            in
            if not ended_with_brace then
              err t.T.extent.Pscommon.Extent.start "unexpected token after statement")
  done;
  List.rev !stmts

and parse_block st =
  skip_newlines st;
  let start = mark st in
  if not (group_start_is st "{") then err (cur_position st) "expected '{'";
  ignore (advance st);
  let stmts = parse_statement_list st ~closing:(Some "}") in
  expect_group_end st "}";
  node_here st start (A.Statement_block stmts)

and parse_paren_pipeline st =
  skip_newlines st;
  if not (group_start_is st "(") then err (cur_position st) "expected '('";
  ignore (advance st);
  skip_separators st;
  let e = parse_statement st in
  skip_separators st;
  expect_group_end st ")";
  e

and parse_statement st =
  skip_newlines st;
  let start = mark st in
  match peek st with
  | None -> err (cur_position st) "expected a statement"
  | Some { T.kind = T.Keyword; content; _ } -> (
      match Strcase.lower content with
      | "if" -> parse_if st start
      | "while" ->
          ignore (advance st);
          let cond = parse_paren_pipeline st in
          let body = parse_block st in
          node_here st start (A.While_stmt (cond, body))
      | "do" ->
          ignore (advance st);
          let body = parse_block st in
          skip_newlines st;
          if keyword_is st "while" then begin
            ignore (advance st);
            let cond = parse_paren_pipeline st in
            node_here st start (A.Do_while_stmt (body, cond))
          end
          else if keyword_is st "until" then begin
            ignore (advance st);
            let cond = parse_paren_pipeline st in
            node_here st start (A.Do_until_stmt (body, cond))
          end
          else err (cur_position st) "expected 'while' or 'until' after do block"
      | "for" -> parse_for st start
      | "foreach" ->
          (* statement form only when followed by '(' *)
          if
            match peek2 st with
            | Some { T.kind = T.Group_start; content = "("; _ } -> true
            | _ -> false
          then parse_foreach st start
          else parse_pipeline_statement st
      | "switch" -> parse_switch st start
      | "function" | "filter" -> parse_function st start
      | "param" ->
          let names = parse_param_keyword st in
          node_here st start (A.Param_block names)
      | "return" ->
          ignore (advance st);
          let value = parse_optional_pipeline st in
          node_here st start (A.Return_stmt value)
      | "break" ->
          ignore (advance st);
          node_here st start A.Break_stmt
      | "continue" ->
          ignore (advance st);
          node_here st start A.Continue_stmt
      | "throw" ->
          ignore (advance st);
          let value = parse_optional_pipeline st in
          node_here st start (A.Throw_stmt value)
      | "exit" ->
          ignore (advance st);
          let value = parse_optional_pipeline st in
          node_here st start (A.Exit_stmt value)
      | "try" -> parse_try st start
      | ("begin" | "process" | "end" | "dynamicparam") as name ->
          ignore (advance st);
          let body = parse_block st in
          node_here st start (A.Named_block (name, body))
      | "trap" ->
          ignore (advance st);
          skip_newlines st;
          (* optional type *)
          if kind_is st T.Type_name then ignore (advance st);
          let body = parse_block st in
          node_here st start (A.Trap_stmt body)
      | kw ->
          (* keywords that behave like commands in loose scripts *)
          ignore kw;
          parse_pipeline_statement st)
  | Some _ -> parse_pipeline_statement st

and parse_optional_pipeline st =
  match peek st with
  | None -> None
  | Some { T.kind = T.New_line | T.Statement_separator | T.Group_end; _ } ->
      None
  | Some _ -> Some (parse_pipeline st)

and parse_if st start =
  ignore (advance st);
  let clauses = ref [] in
  let cond = parse_paren_pipeline st in
  let body = parse_block st in
  clauses := [ (cond, body) ];
  let else_branch = ref None in
  let continue = ref true in
  while !continue do
    (* newlines allowed before elseif/else *)
    let save = st.pos in
    skip_newlines st;
    if keyword_is st "elseif" then begin
      ignore (advance st);
      let c = parse_paren_pipeline st in
      let b = parse_block st in
      clauses := (c, b) :: !clauses
    end
    else if keyword_is st "else" then begin
      ignore (advance st);
      else_branch := Some (parse_block st);
      continue := false
    end
    else begin
      st.pos <- save;
      continue := false
    end
  done;
  node_here st start (A.If_stmt (List.rev !clauses, !else_branch))

and parse_for st start =
  ignore (advance st);
  skip_newlines st;
  if not (group_start_is st "(") then err (cur_position st) "expected '(' after for";
  ignore (advance st);
  skip_separators st;
  let init =
    if kind_is st T.Statement_separator then None else Some (parse_statement st)
  in
  if kind_is st T.Statement_separator then ignore (advance st);
  skip_newlines st;
  let cond =
    if kind_is st T.Statement_separator then None else Some (parse_pipeline st)
  in
  if kind_is st T.Statement_separator then ignore (advance st);
  skip_newlines st;
  let step =
    if group_end_is st ")" then None else Some (parse_statement st)
  in
  skip_separators st;
  expect_group_end st ")";
  let body = parse_block st in
  node_here st start (A.For_stmt (init, cond, step, body))

and parse_foreach st start =
  ignore (advance st);
  skip_newlines st;
  ignore (advance st);
  (* '(' *)
  skip_newlines st;
  let var_start = mark st in
  let var_tok = advance st in
  if var_tok.T.kind <> T.Variable then err var_start "expected loop variable";
  let var =
    node_here st var_start
      (A.Variable_expr { A.var_name = var_tok.T.content; var_splat = false })
  in
  skip_newlines st;
  if not (keyword_is st "in") then err (cur_position st) "expected 'in'";
  ignore (advance st);
  skip_newlines st;
  let coll = parse_pipeline st in
  skip_newlines st;
  expect_group_end st ")";
  let body = parse_block st in
  node_here st start (A.Foreach_stmt (var, coll, body))

and parse_switch st start =
  ignore (advance st);
  skip_newlines st;
  (* optional flags: -regex -wildcard -exact -casesensitive *)
  let rec skip_flags () =
    match peek st with
    | Some { T.kind = T.Command_argument; content; _ }
      when String.length content > 0 && content.[0] = '-' ->
        ignore (advance st);
        skip_flags ()
    | Some { T.kind = T.Command_parameter; _ } ->
        ignore (advance st);
        skip_flags ()
    | _ -> ()
  in
  skip_flags ();
  let value = parse_paren_pipeline st in
  skip_newlines st;
  if not (group_start_is st "{") then err (cur_position st) "expected '{' in switch";
  ignore (advance st);
  let cases = ref [] in
  let default = ref None in
  let continue = ref true in
  while !continue do
    skip_separators st;
    if group_end_is st "}" then begin
      ignore (advance st);
      continue := false
    end
    else begin
      let pat_start = mark st in
      let is_default =
        match peek st with
        | Some { T.kind = T.Command | T.Command_argument | T.Member; content; _ }
          when Strcase.equal content "default" ->
            true
        | _ -> false
      in
      if is_default then begin
        ignore (advance st);
        let body = parse_block st in
        default := Some body
      end
      else begin
        let pat =
          match peek st with
          | Some { T.kind = T.Command | T.Command_argument | T.Member; content; _ } ->
              ignore (advance st);
              node_here st pat_start (A.String_const (content, A.Bare))
          | _ -> parse_primary st
        in
        let body = parse_block st in
        cases := (pat, body) :: !cases
      end
    end
  done;
  node_here st start (A.Switch_stmt (value, List.rev !cases, !default))

and parse_function st start =
  ignore (advance st);
  skip_newlines st;
  let name_tok = advance st in
  let name =
    match name_tok.T.kind with
    | T.Command | T.Command_argument | T.Member | T.Keyword -> name_tok.T.content
    | _ -> err name_tok.T.extent.Extent.start "expected function name"
  in
  skip_newlines st;
  let params =
    if group_start_is st "(" then begin
      ignore (advance st);
      let names = ref [] in
      let depth = ref 1 in
      while !depth > 0 && not (at_end st) do
        let t = advance st in
        match t.T.kind with
        | T.Group_start -> incr depth
        | T.Group_end -> decr depth
        | T.Variable -> if !depth = 1 then names := t.T.content :: !names
        | _ -> ()
      done;
      List.rev !names
    end
    else []
  in
  skip_newlines st;
  if not (group_start_is st "{") then err (cur_position st) "expected function body";
  let body_start = mark st in
  ignore (advance st);
  let inner = parse_script_block st ~closing:(Some "}") in
  expect_group_end st "}";
  let body = A.make inner.A.node (Extent.make ~start:body_start ~stop:st.last_stop) in
  node_here st start (A.Function_def (name, params, body))

and parse_try st start =
  ignore (advance st);
  let body = parse_block st in
  let catches = ref [] in
  let finally = ref None in
  let continue = ref true in
  while !continue do
    let save = st.pos in
    skip_newlines st;
    if keyword_is st "catch" then begin
      ignore (advance st);
      skip_newlines st;
      let types = ref [] in
      while kind_is st T.Type_name do
        let t = advance st in
        types := t.T.content :: !types;
        skip_newlines st;
        if op_is st "," then begin
          ignore (advance st);
          skip_newlines st
        end
      done;
      let cbody = parse_block st in
      catches := (List.rev !types, cbody) :: !catches
    end
    else if keyword_is st "finally" then begin
      ignore (advance st);
      finally := Some (parse_block st);
      continue := false
    end
    else begin
      st.pos <- save;
      continue := false
    end
  done;
  if !catches = [] && !finally = None then
    err (cur_position st) "try without catch or finally";
  node_here st start (A.Try_stmt (body, List.rev !catches, !finally))

(* ---------- pipelines & commands ---------- *)

and parse_pipeline_statement st = parse_pipeline st

and parse_pipeline st =
  let start = mark st in
  let first = parse_pipeline_element st in
  (* assignment? *)
  match (first.A.node, peek st) with
  | A.Command_expression lhs, Some { T.kind = T.Operator; content; _ }
    when List.mem content [ "="; "+="; "-="; "*="; "/="; "%=" ] ->
      let op =
        match content with
        | "=" -> A.Assign
        | "+=" -> A.Plus_assign
        | "-=" -> A.Minus_assign
        | "*=" -> A.Times_assign
        | "/=" -> A.Div_assign
        | "%=" -> A.Mod_assign
        | _ -> assert false
      in
      ignore (advance st);
      skip_newlines st;
      let rhs = parse_statement st in
      node_here st start (A.Assignment (op, lhs, rhs))
  | _ ->
      let elements = ref [ first ] in
      while op_is st "|" || op_is st "||" do
        ignore (advance st);
        skip_newlines st;
        elements := parse_pipeline_element st :: !elements
      done;
      node_here st start (A.Pipeline (List.rev !elements))

and parse_pipeline_element st =
  let start = mark st in
  match peek st with
  | None -> err (cur_position st) "expected pipeline element"
  | Some { T.kind = T.Command; _ } -> parse_command st start A.Inv_normal None
  | Some { T.kind = T.Keyword; content; _ } ->
      (* 'foreach'/'where' as command aliases inside pipelines *)
      let name_tok = advance st in
      ignore content;
      let name =
        A.make
          (A.String_const (name_tok.T.content, A.Bare))
          name_tok.T.extent
      in
      parse_command_elements st start A.Inv_normal name
  | Some { T.kind = T.Operator; content = "&"; _ } ->
      ignore (advance st);
      parse_invocation_target st start A.Inv_call
  | Some { T.kind = T.Operator; content = "."; _ } ->
      ignore (advance st);
      parse_invocation_target st start A.Inv_dot
  | Some _ ->
      let e = parse_expression st in
      (* an expression can be followed by command arguments only via call
         operators, so a bare expression is a command-expression element *)
      A.make (A.Command_expression e) e.A.extent

and parse_invocation_target st start inv =
  skip_newlines st;
  let name =
    match peek st with
    | Some { T.kind = T.Command_argument; _ } ->
        let t = advance st in
        A.make (A.String_const (t.T.content, A.Bare)) t.T.extent
    | _ -> parse_postfix st
  in
  parse_command_elements st start inv name

and parse_command st start inv name_opt =
  ignore name_opt;
  let name_tok = advance st in
  let name =
    A.make (A.String_const (name_tok.T.content, A.Bare)) name_tok.T.extent
  in
  parse_command_elements st start inv name

and parse_command_elements st start inv name =
  let elements = ref [ A.Elem_name name ] in
  let continue = ref true in
  while !continue do
    match peek st with
    | None -> continue := false
    | Some { T.kind = T.New_line | T.Statement_separator | T.Group_end | T.Index_end; _ } ->
        continue := false
    | Some { T.kind = T.Operator; content = "|" | "||" | "&&"; _ } -> continue := false
    | Some { T.kind = T.Operator; content = "&"; _ } ->
        (* background operator: consume and stop *)
        ignore (advance st);
        continue := false
    | Some { T.kind = T.Operator; content = ("2>&1" | "1>&2" | ">" | ">>" | "2>" | "1>" | "2>>" | "1>>" | "<") as redir; _ } ->
        ignore (advance st);
        (* consume a redirection target when one follows *)
        (match peek st with
        | Some { T.kind = T.Command_argument | T.Number; _ } -> ignore (advance st)
        | Some t when T.is_string t -> ignore (advance st)
        | _ -> ());
        elements := A.Elem_redirection redir :: !elements
    | Some { T.kind = T.Command_parameter; content; _ } ->
        ignore (advance st);
        let with_colon = String.length content > 0 && content.[String.length content - 1] = ':' in
        if with_colon then begin
          let value = parse_argument st in
          elements := A.Elem_parameter (content, Some value) :: !elements
        end
        else elements := A.Elem_parameter (content, None) :: !elements
    | Some { T.kind = T.Keyword; content; _ } ->
        (* keywords as bareword arguments inside a command *)
        let t = advance st in
        ignore content;
        elements :=
          A.Elem_argument (A.make (A.String_const (t.T.content, A.Bare)) t.T.extent)
          :: !elements
    | Some { T.kind = T.Operator; content; extent; _ } ->
        (* a stray operator in argument position is treated as a literal
           bareword argument, matching PowerShell's generic token gluing *)
        ignore (advance st);
        elements :=
          A.Elem_argument (A.make (A.String_const (content, A.Bare)) extent)
          :: !elements
    | Some _ ->
        let value = parse_argument st in
        elements := A.Elem_argument value :: !elements
  done;
  node_here st start
    (A.Command { A.cmd_invocation = inv; cmd_elements = List.rev !elements })

(* A command argument: a postfix-primary expression, possibly a comma
   array; no binary operators at argument position. *)
and parse_argument st =
  let start = mark st in
  let first = parse_argument_atom st in
  if op_is st "," then begin
    let items = ref [ first ] in
    while op_is st "," do
      ignore (advance st);
      skip_newlines st;
      items := parse_argument_atom st :: !items
    done;
    node_here st start (A.Array_literal (List.rev !items))
  end
  else first

and parse_argument_atom st =
  match peek st with
  | Some { T.kind = T.Command_argument; _ } ->
      let t = advance st in
      A.make (A.String_const (t.T.content, A.Bare)) t.T.extent
  | Some { T.kind = T.Number; content; extent; _ } ->
      let t = advance st in
      ignore t;
      A.make (A.Number_const (parse_number_content extent.Extent.start content)) extent
  | _ -> parse_postfix st

(* ---------- expressions ---------- *)

and parse_expression st = parse_logical st

and parse_logical st =
  let start = mark st in
  let lhs = ref (parse_comparison st) in
  let rec loop () =
    match peek st with
    | Some { T.kind = T.Operator; content = ("-and" | "-or" | "-xor") as c; _ } ->
        ignore (advance st);
        skip_newlines st;
        let rhs = parse_comparison st in
        let op =
          match c with
          | "-and" -> A.And_op
          | "-or" -> A.Or_op
          | _ -> A.Xor_op
        in
        lhs := node_here st start (A.Binary_expr (op, None, !lhs, rhs));
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_comparison st =
  let start = mark st in
  let lhs = ref (parse_additive st) in
  let rec loop () =
    match peek st with
    | Some { T.kind = T.Operator; content; _ } -> (
        match binop_of_content content with
        | Some (op, sensitivity) ->
            ignore (advance st);
            skip_newlines st;
            let rhs = parse_additive st in
            lhs := node_here st start (A.Binary_expr (op, sensitivity, !lhs, rhs));
            loop ()
        | None -> ())
    | _ -> ()
  in
  loop ();
  !lhs

and parse_additive st =
  let start = mark st in
  let lhs = ref (parse_multiplicative st) in
  let rec loop () =
    match peek st with
    | Some { T.kind = T.Operator; content = ("+" | "-") as c; _ } ->
        ignore (advance st);
        skip_newlines st;
        let rhs = parse_multiplicative st in
        let op = if c = "+" then A.Add else A.Sub in
        lhs := node_here st start (A.Binary_expr (op, None, !lhs, rhs));
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_multiplicative st =
  let start = mark st in
  let lhs = ref (parse_format st) in
  let rec loop () =
    match peek st with
    | Some { T.kind = T.Operator; content = ("*" | "/" | "%") as c; _ } ->
        ignore (advance st);
        skip_newlines st;
        let rhs = parse_format st in
        let op = match c with "*" -> A.Mul | "/" -> A.Div | _ -> A.Mod in
        lhs := node_here st start (A.Binary_expr (op, None, !lhs, rhs));
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_format st =
  let start = mark st in
  let lhs = ref (parse_range st) in
  let rec loop () =
    match peek st with
    | Some { T.kind = T.Operator; content = "-f"; _ } ->
        ignore (advance st);
        skip_newlines st;
        let rhs = parse_range st in
        lhs := node_here st start (A.Binary_expr (A.Format, None, !lhs, rhs));
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_range st =
  let start = mark st in
  let lhs = parse_array_literal st in
  if op_is st ".." then begin
    ignore (advance st);
    skip_newlines st;
    let rhs = parse_array_literal st in
    node_here st start (A.Binary_expr (A.Range, None, lhs, rhs))
  end
  else lhs

and parse_array_literal st =
  let start = mark st in
  let first = parse_unary st in
  if (not st.no_comma) && op_is st "," then begin
    let items = ref [ first ] in
    while op_is st "," do
      ignore (advance st);
      skip_newlines st;
      items := parse_unary st :: !items
    done;
    node_here st start (A.Array_literal (List.rev !items))
  end
  else first

and starts_operand st =
  match peek st with
  | Some { T.kind = T.Number | T.Variable | T.Splat_variable | T.Type_name
           | T.Group_start | T.String_single | T.String_double
           | T.String_single_here | T.String_double_here; _ } ->
      true
  | Some { T.kind = T.Operator;
           content = "-" | "+" | "!" | "-not" | "-bnot" | "-join" | "-split" | "++" | "--"; _ } ->
      true
  | _ -> false

and parse_unary st =
  let start = mark st in
  match peek st with
  | Some { T.kind = T.Operator; content = ("!" | "-not") ; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Not, operand))
  | Some { T.kind = T.Operator; content = "-bnot"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Bnot, operand))
  | Some { T.kind = T.Operator; content = "-join"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Ujoin, operand))
  | Some { T.kind = T.Operator; content = "-split"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Usplit, operand))
  | Some { T.kind = T.Operator; content = "-"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Negate, operand))
  | Some { T.kind = T.Operator; content = "+"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Unary_plus, operand))
  | Some { T.kind = T.Operator; content = "++"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Incr, operand))
  | Some { T.kind = T.Operator; content = "--"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Decr, operand))
  | Some { T.kind = T.Type_name; content; _ } ->
      let t = advance st in
      if starts_operand st then
        let operand = parse_unary st in
        node_here st start (A.Convert_expr (content, operand))
      else
        let base = A.make (A.Type_literal content) t.T.extent in
        parse_postfix_chain st start base
  | _ -> parse_postfix st

and parse_postfix st =
  let start = mark st in
  let base = parse_primary st in
  parse_postfix_chain st start base

and parse_postfix_chain st start base =
  let lhs = ref base in
  let continue = ref true in
  while !continue do
    match peek st with
    | Some { T.kind = T.Operator; content = "."; extent; _ }
      when extent.Extent.start = st.last_stop ->
        ignore (advance st);
        parse_member_after st start lhs ~static:false
    | Some { T.kind = T.Operator; content = "::"; _ } ->
        ignore (advance st);
        parse_member_after st start lhs ~static:true
    | Some { T.kind = T.Index_start; _ } ->
        ignore (advance st);
        let saved = st.no_comma in
        st.no_comma <- false;
        skip_newlines st;
        let idx = parse_expression st in
        st.no_comma <- saved;
        skip_newlines st;
        (match peek st with
        | Some { T.kind = T.Index_end; _ } -> ignore (advance st)
        | _ -> err (cur_position st) "expected ']'");
        lhs := node_here st start (A.Index_expr (!lhs, idx))
    | Some { T.kind = T.Operator; content = "++"; _ } ->
        ignore (advance st);
        lhs := node_here st start (A.Postfix_expr (A.Incr, !lhs))
    | Some { T.kind = T.Operator; content = "--"; _ } ->
        ignore (advance st);
        lhs := node_here st start (A.Postfix_expr (A.Decr, !lhs))
    | _ -> continue := false
  done;
  !lhs

and parse_member_after st start lhs ~static =
  let member =
    match peek st with
    | Some { T.kind = T.Member; _ } ->
        let t = advance st in
        A.Member_name t.T.content
    | Some { T.kind = T.Variable; _ } ->
        let t = advance st in
        A.Member_dynamic
          (A.make
             (A.Variable_expr { A.var_name = t.T.content; var_splat = false })
             t.T.extent)
    | Some t when T.is_string t ->
        let e = parse_primary st in
        A.Member_dynamic e
    | _ -> err (cur_position st) "expected member name"
  in
  (* method call: '(' must be adjacent *)
  match peek st with
  | Some { T.kind = T.Group_start; content = "("; extent; _ }
    when extent.Extent.start = st.last_stop ->
      ignore (advance st);
      skip_newlines st;
      let args = ref [] in
      let saved_no_comma = st.no_comma in
      st.no_comma <- true;
      if not (group_end_is st ")") then begin
        args := [ parse_expression st ];
        skip_newlines st;
        while op_is st "," do
          ignore (advance st);
          skip_newlines st;
          args := parse_expression st :: !args;
          skip_newlines st
        done
      end;
      st.no_comma <- saved_no_comma;
      expect_group_end st ")";
      lhs := node_here st start (A.Invoke_member (!lhs, member, List.rev !args, static))
  | _ -> lhs := node_here st start (A.Member_access (!lhs, member, static))

and parse_primary st =
  let start = mark st in
  match peek st with
  | None -> err (cur_position st) "expected an expression"
  | Some { T.kind = T.Number; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Number_const (parse_number_content extent.Extent.start content)) extent
  | Some { T.kind = T.String_single; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Single_quoted)) extent
  | Some { T.kind = T.String_single_here; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Single_here)) extent
  | Some ({ T.kind = T.String_double; _ } as t) ->
      ignore (advance st);
      parse_expandable st t A.Double_quoted
  | Some ({ T.kind = T.String_double_here; _ } as t) ->
      ignore (advance st);
      parse_expandable st t A.Double_here
  | Some { T.kind = T.Variable; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Variable_expr { A.var_name = content; var_splat = false }) extent
  | Some { T.kind = T.Splat_variable; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Variable_expr { A.var_name = content; var_splat = true }) extent
  | Some { T.kind = T.Type_name; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Type_literal content) extent
  | Some { T.kind = T.Group_start; content = "("; _ } ->
      ignore (advance st);
      let saved = st.no_comma in
      st.no_comma <- false;
      skip_separators st;
      let inner = parse_statement st in
      skip_separators st;
      st.no_comma <- saved;
      expect_group_end st ")";
      node_here st start (A.Paren_expr inner)
  | Some { T.kind = T.Group_start; content = "$("; _ } ->
      ignore (advance st);
      let saved = st.no_comma in
      st.no_comma <- false;
      let stmts = parse_statement_list st ~closing:(Some ")") in
      st.no_comma <- saved;
      expect_group_end st ")";
      node_here st start (A.Sub_expr stmts)
  | Some { T.kind = T.Group_start; content = "@("; _ } ->
      ignore (advance st);
      let saved = st.no_comma in
      st.no_comma <- false;
      let stmts = parse_statement_list st ~closing:(Some ")") in
      st.no_comma <- saved;
      expect_group_end st ")";
      node_here st start (A.Array_expr stmts)
  | Some { T.kind = T.Group_start; content = "@{"; _ } ->
      ignore (advance st);
      let pairs = parse_hash_entries st in
      expect_group_end st "}";
      node_here st start (A.Hash_literal pairs)
  | Some { T.kind = T.Group_start; content = "{"; _ } ->
      ignore (advance st);
      let saved = st.no_comma in
      st.no_comma <- false;
      let sb = parse_script_block st ~closing:(Some "}") in
      st.no_comma <- saved;
      expect_group_end st "}";
      let block =
        match sb.A.node with
        | A.Script_block b -> b
        | _ -> assert false
      in
      node_here st start (A.Script_block_expr block)
  | Some { T.kind = T.Command_argument; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Bare)) extent
  | Some { T.kind = T.Command; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Bare)) extent
  | Some { T.kind = T.Member; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Bare)) extent
  | Some t ->
      err t.T.extent.Extent.start
        (Printf.sprintf "unexpected token %s" (T.kind_name t.T.kind))

and parse_hash_entries st =
  let pairs = ref [] in
  let continue = ref true in
  while !continue do
    skip_separators st;
    if group_end_is st "}" || at_end st then continue := false
    else begin
      let key_start = mark st in
      let key =
        match peek st with
        | Some { T.kind = T.Member | T.Command | T.Command_argument; content; _ } ->
            ignore (advance st);
            node_here st key_start (A.String_const (content, A.Bare))
        | _ -> parse_primary st
      in
      skip_newlines st;
      expect_op st "=";
      skip_newlines st;
      let value = parse_statement st in
      pairs := (key, value) :: !pairs
    end
  done;
  List.rev !pairs

(* ---------- expandable strings ---------- *)

and parse_expandable st tok quote_kind =
  let raw = tok.T.text in
  let ext = tok.T.extent in
  (* body bounds inside raw text *)
  let body_start, body_stop =
    match quote_kind with
    | A.Double_quoted -> (1, String.length raw - 1)
    | A.Double_here ->
        let first_nl =
          match String.index_opt raw '\n' with Some i -> i + 1 | None -> 2
        in
        (first_nl, String.length raw - 3)
    | A.Bare | A.Single_quoted | A.Single_here -> (0, String.length raw)
  in
  let abs i = ext.Extent.start + i in
  let parts = ref [] in
  let text_buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length text_buf > 0 then begin
      parts := A.Part_text (Buffer.contents text_buf) :: !parts;
      Buffer.clear text_buf
    end
  in
  let i = ref body_start in
  let n = body_stop in
  while !i < n do
    let c = raw.[!i] in
    if c = '`' && !i + 1 < n then begin
      Buffer.add_char text_buf (backtick_escape_char raw.[!i + 1]);
      i := !i + 2
    end
    else if c = '"' && !i + 1 < n && raw.[!i + 1] = '"' then begin
      Buffer.add_char text_buf '"';
      i := !i + 2
    end
    else if c = '$' && !i + 1 < n then begin
      let c2 = raw.[!i + 1] in
      if c2 = '(' then begin
        (* find matching close paren *)
        let close = find_matching_paren ~err_pos:(abs !i) raw (!i + 1) n in
        flush_text ();
        let inner_start = !i + 2 in
        let fragment = String.sub raw inner_start (close - inner_start) in
        let sub =
          parse_fragment_internal ~src:st.src ~offset:(abs inner_start) fragment
        in
        let sub_ext = Extent.make ~start:(abs !i) ~stop:(abs (close + 1)) in
        let stmts =
          match sub.A.node with A.Script_block b -> b.A.sb_statements | _ -> []
        in
        parts := A.Part_subexpr (A.make (A.Sub_expr stmts) sub_ext) :: !parts;
        i := close + 1
      end
      else if c2 = '{' then begin
        match String.index_from_opt raw (!i + 2) '}' with
        | Some close when close < n ->
            flush_text ();
            let name = String.sub raw (!i + 2) (close - !i - 2) in
            let vext = Extent.make ~start:(abs !i) ~stop:(abs (close + 1)) in
            parts :=
              A.Part_variable ({ A.var_name = name; var_splat = false }, vext)
              :: !parts;
            i := close + 1
        | _ ->
            Buffer.add_char text_buf c;
            incr i
      end
      else if is_var_start_char c2 then begin
        let j = ref (!i + 1) in
        while
          !j < n
          && (is_ident_char_local raw.[!j]
             || (raw.[!j] = ':' && !j + 1 < n && is_ident_char_local raw.[!j + 1]))
        do
          incr j
        done;
        flush_text ();
        let name = String.sub raw (!i + 1) (!j - !i - 1) in
        let vext = Extent.make ~start:(abs !i) ~stop:(abs !j) in
        parts :=
          A.Part_variable ({ A.var_name = name; var_splat = false }, vext)
          :: !parts;
        i := !j
      end
      else begin
        Buffer.add_char text_buf c;
        incr i
      end
    end
    else begin
      Buffer.add_char text_buf c;
      incr i
    end
  done;
  flush_text ();
  let parts = List.rev !parts in
  let has_expansion =
    List.exists
      (function A.Part_text _ -> false | A.Part_variable _ | A.Part_subexpr _ -> true)
      parts
  in
  if has_expansion then A.make (A.Expandable_string (tok.T.content, parts)) ext
  else A.make (A.String_const (tok.T.content, quote_kind)) ext

and backtick_escape_char c =
  match c with
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | 'a' -> '\007'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'v' -> '\011'
  | c -> c

and is_var_start_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

and is_ident_char_local c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

and find_matching_paren ~err_pos raw start limit =
  (* raw.[start] = '('; returns index of matching ')'.  [err_pos] is the
     offset of the opening [$(] in the original source: an unterminated
     subexpression must surface at its real site, not position 0, so region
     segmentation and error reports point at the break. *)
  let depth = ref 0 in
  let i = ref start in
  let result = ref (-1) in
  while !result < 0 && !i < limit do
    (match raw.[!i] with
    | '(' -> incr depth
    | ')' ->
        decr depth;
        if !depth = 0 then result := !i
    | '\'' ->
        (* skip single-quoted string *)
        let j = ref (!i + 1) in
        while !j < limit && raw.[!j] <> '\'' do
          incr j
        done;
        i := !j
    | '"' ->
        let j = ref (!i + 1) in
        while !j < limit && raw.[!j] <> '"' do
          if raw.[!j] = '`' then incr j;
          incr j
        done;
        i := !j
    | '`' -> incr i
    | _ -> ());
    incr i
  done;
  if !result < 0 then err err_pos "unterminated $( in expandable string"
  else !result

(* ---------- fragment parsing ---------- *)

and parse_fragment_internal ~src ~offset fragment =
  match Pslex.Lexer.tokenize fragment with
  | Error e ->
      err (offset + e.Pslex.Lexer.position) ("in fragment: " ^ e.Pslex.Lexer.message)
  | Ok toks ->
      let toks =
        List.filter
          (fun t ->
            match t.T.kind with
            | T.Comment | T.Line_continuation -> false
            | _ -> true)
          toks
        |> List.map (fun t -> { t with T.extent = Extent.shift t.T.extent offset })
      in
      let st2 = { src; toks = Array.of_list toks; pos = 0; last_stop = offset; no_comma = false } in
      let sb = parse_script_block st2 ~closing:None in
      if not (at_end st2) then err (cur_position st2) "trailing tokens in fragment";
      sb

(* ---------- entry points ---------- *)

let prepare_tokens toks =
  List.filter
    (fun t ->
      match t.T.kind with
      | T.Comment | T.Line_continuation -> false
      | _ -> true)
    toks

(* every whole-script parse, whichever entry point it came through *)
let m_parses = Pscommon.Telemetry.Metrics.counter "psparse.parses"

let parse_tokens src toks =
  Pscommon.Telemetry.Metrics.incr m_parses;
  let toks = prepare_tokens toks in
  let st = { src; toks = Array.of_list toks; pos = 0; last_stop = 0; no_comma = false } in
  match parse_script_block st ~closing:None with
  | sb ->
      if at_end st then Ok sb
      else Error { message = "unexpected trailing tokens"; position = cur_position st }
  | exception Err e -> Error e
  | exception Failure m -> Error { message = m; position = 0 }
  | exception Invalid_argument m -> Error { message = m; position = 0 }

let lex_error (e : Pslex.Lexer.error) =
  { message = e.Pslex.Lexer.message; position = e.Pslex.Lexer.position }

let parse src =
  match Pslex.Lexer.tokenize src with
  | Error e -> Error (lex_error e)
  | Ok toks -> parse_tokens src toks

type parsed = { text : string; tokens : T.t list; ast : Psast.Ast.t }

let parse_full src =
  match Pslex.Lexer.tokenize src with
  | Error e -> Error (lex_error e)
  | Ok tokens -> (
      match parse_tokens src tokens with
      | Ok ast -> Ok { text = src; tokens; ast }
      | Error _ as e -> e)

let parse_exn src =
  match parse src with
  | Ok ast -> ast
  | Error e -> failwith (Printf.sprintf "parse error at %d: %s" e.position e.message)

let parse_fragment ~src ~offset fragment =
  match parse_fragment_internal ~src ~offset fragment with
  | ast -> Ok ast
  | exception Err e -> Error e
  | exception Failure m -> Error { message = m; position = offset }
  | exception Invalid_argument m -> Error { message = m; position = offset }

let is_valid_syntax src = match parse src with Ok _ -> true | Error _ -> false
