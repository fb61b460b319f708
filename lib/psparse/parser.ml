open Pscommon
module T = Pslex.Token
module A = Psast.Ast

type error = { message : string; position : int }

exception Err of error

let err pos message = raise (Err { message; position = pos })

(* The token array ends in a sentinel: [peek] and [mark] run on every
   token, and they allocate nothing.  The sentinel is a comment token,
   which the grammar never sees otherwise (comments are dropped before
   parsing), so a [T.Comment] pattern is the end of the tokens. *)
type state = {
  src : string;
  toks : T.t array;  (* the tokens, then [eof] *)
  mutable pos : int;
  mutable last_stop : int;  (* stop offset of the last consumed token *)
  mutable no_comma : bool;
      (* inside a method argument list commas separate arguments, so the
         expression grammar must not fold them into array literals; any
         nested group resets this *)
}

let eof =
  { T.kind = T.Comment; content = ""; text = ""; extent = Extent.empty_at 0 }

(* ---------- token helpers ---------- *)

let at_end st = st.pos >= Array.length st.toks - 1
let peek st = st.toks.(st.pos)
let peek2 st = if at_end st then eof else st.toks.(st.pos + 1)

let cur_position st =
  if at_end st then String.length st.src else (peek st).T.extent.Extent.start

let advance st =
  if at_end st then err (cur_position st) "unexpected end of script";
  let t = peek st in
  st.pos <- st.pos + 1;
  st.last_stop <- t.T.extent.Extent.stop;
  t

let kind_is st k = (peek st).T.kind = k

let content_is st k s =
  let t = peek st in
  t.T.kind = k && String.equal t.T.content s

let op_is st s = content_is st T.Operator s
let group_start_is st s = content_is st T.Group_start s
let group_end_is st s = content_is st T.Group_end s

let keyword_is st s =
  let t = peek st in
  t.T.kind = T.Keyword && Strcase.equal t.T.content s

let expect_group_end st s =
  match peek st with
  | { T.kind = T.Group_end; content; _ } when content = s ->
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

(* the decimal value of [s], or [-1] at a character that is not a digit *)
let rec decimal s i acc =
  if i = String.length s then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as c -> decimal s (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> -1

let parse_number_literal pos content =
  let lower = Strcase.lower content in
  let sign, body =
    if String.length lower > 0 && lower.[0] = '-' then
      (-1., String.sub lower 1 (String.length lower - 1))
    else (1., lower)
  in
  let hex = String.length body > 2 && body.[0] = '0' && body.[1] = 'x' in
  let body, suffix, mult =
    let strip (suffix, m) =
      if Strcase.ends_with ~suffix body then
        Some (String.sub body 0 (String.length body - String.length suffix), suffix, m)
      else None
    in
    (* [d] (decimal) is a hex digit in a hex literal, not a suffix *)
    match
      List.find_map strip
        ([ ("kb", 1024.); ("mb", 1048576.); ("gb", 1073741824.);
           ("tb", 1099511627776.); ("pb", 1125899906842624.); ("l", 1.) ]
        @ if hex then [] else [ ("d", 1.) ])
    with
    | Some found -> found
    | None -> (body, "", 1.)
  in
  if hex then
    match int_of_string_opt body with
    | Some n ->
        (* a hex literal without the long suffix that fits in 32 bits is an
           Int32: 0x80000000 to 0xFFFFFFFF read as negative numbers *)
        let n =
          if suffix <> "l" && n >= 0x8000_0000 && n <= 0xFFFF_FFFF then
            n - 0x1_0000_0000
          else n
        in
        A.Int_lit (int_of_float (sign *. float_of_int n *. mult))
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

(* up to 15 digits with no sign, suffix or fraction: the integer
   [parse_number_literal] gives, which a float holds exactly *)
let parse_number_content pos content =
  let short = if String.length content <= 15 then decimal content 0 0 else -1 in
  if String.length content > 0 && short >= 0 then A.Int_lit short
  else parse_number_literal pos content

(* ---------- operators ---------- *)

(* Binary operators by precedence, loosest first: 1 logical, 2 comparison,
   3 additive, 4 multiplicative, 5 format.  An operator token's content is
   already lowercased by the lexer; it is looked up once, with no
   allocation: the common spellings by a string match, the comparisons in
   a table. *)
type binary = { prec : int; op : A.binop; case : bool option }

let binary prec op = { prec; op; case = None }
let not_binary = binary 0 A.Add
let b_and = binary 1 A.And_op
let b_or = binary 1 A.Or_op
let b_xor = binary 1 A.Xor_op
let b_add = binary 3 A.Add
let b_sub = binary 3 A.Sub
let b_mul = binary 4 A.Mul
let b_div = binary 4 A.Div
let b_mod = binary 4 A.Mod
let b_format = binary 5 A.Format

(* Each comparison, plus its [-c] (case-sensitive) and [-i] (explicitly
   insensitive) spellings.  Exact spellings win: '-contains' must not lose
   its 'c' to the case-sensitivity prefix, nor '-isnot' its 'i'. *)
let comparisons =
  let ops =
    A.
      [ ("eq", Eq); ("ne", Ne); ("gt", Gt); ("ge", Ge); ("lt", Lt); ("le", Le);
        ("like", Like); ("notlike", Notlike); ("match", Match);
        ("notmatch", Notmatch); ("replace", Replace); ("split", Split);
        ("join", Join); ("contains", Contains); ("notcontains", Notcontains);
        ("in", In_op); ("notin", Notin); ("is", Is_op); ("isnot", Isnot);
        ("as", As_op); ("band", Band); ("bor", Bor); ("bxor", Bxor);
        ("shl", Shl); ("shr", Shr) ]
  in
  let t = Hashtbl.create 128 in
  let add content op case = Hashtbl.replace t content { prec = 2; op; case } in
  List.iter
    (fun (w, op) ->
      add ("-c" ^ w) op (Some true);
      add ("-i" ^ w) op (Some false))
    ops;
  List.iter (fun (w, op) -> add ("-" ^ w) op None) ops;
  t

let binary_of_content = function
  | "+" -> b_add
  | "-" -> b_sub
  | "*" -> b_mul
  | "/" -> b_div
  | "%" -> b_mod
  | "-f" -> b_format
  | "-and" -> b_and
  | "-or" -> b_or
  | "-xor" -> b_xor
  | content ->
      if String.length content > 2 && String.unsafe_get content 0 = '-' then
        match Hashtbl.find comparisons content with
        | b -> b
        | exception Not_found -> not_binary
      else not_binary

let binary_at st =
  match peek st with
  | { T.kind = T.Operator; content; _ } -> binary_of_content content
  | _ -> not_binary

(* The tokens the grammar reads, comments and line continuations dropped,
   each extent shifted by [offset], then [eof]: counted, then written
   straight into the array. *)
let kept t =
  match t.T.kind with T.Comment | T.Line_continuation -> false | _ -> true

let rec fill a offset i = function
  | [] -> ()
  | t :: rest when kept t ->
      a.(i) <-
        (if offset = 0 then t
         else { t with T.extent = Extent.shift t.T.extent offset });
      fill a offset (i + 1) rest
  | _ :: rest -> fill a offset i rest

let token_array ~offset toks =
  let n = List.fold_left (fun n t -> if kept t then n + 1 else n) 0 toks in
  let a = Array.make (n + 1) eof in
  fill a offset 0 toks;
  a

(* ---------- expandable-string scanning ---------- *)

let is_var_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* the end of the run of characters from [i] that an expandable string
   keeps as they are: no escape, no quote, no '$' *)
let rec plain_end raw n i =
  if i < n && (match raw.[i] with '`' | '"' | '$' -> false | _ -> true) then
    plain_end raw n (i + 1)
  else i

(* $name and $drive:name inside an expandable string *)
let rec expandable_name_end raw n j =
  if
    j < n
    && (is_var_char raw.[j]
       || (raw.[j] = ':' && j + 1 < n && is_var_char raw.[j + 1]))
  then expandable_name_end raw n (j + 1)
  else j

(* the first '}' from [i] before [n], or [-1] *)
let rec brace_end raw n i =
  if i >= n then -1 else if raw.[i] = '}' then i else brace_end raw n (i + 1)

let flush_text buf parts =
  if Buffer.length buf = 0 then parts
  else begin
    let s = Buffer.contents buf in
    Buffer.clear buf;
    A.Part_text s :: parts
  end

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
      | T.Variable -> if !depth = 1 then names := Names.variable t.T.content :: !names
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
    | { T.kind = T.Comment; _ } -> continue := false
    | { T.kind = T.Group_end; content; _ }
      when (match closing with Some c -> String.equal c content | None -> false)
      ->
        continue := false
    | { T.kind = T.Group_end; _ } when Option.is_none closing ->
        err (cur_position st) "unbalanced group end"
    | _ ->
        stmts := parse_statement st :: !stmts;
        (* a statement must be followed by a separator, the closing group or
           EOF — unless it ended with '}' (blocks chain freely) *)
        (match peek st with
        | { T.kind = T.Comment | T.New_line | T.Statement_separator | T.Group_end; _ } ->
            ()
        | t ->
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
  | { T.kind = T.Comment; _ } -> err (cur_position st) "expected a statement"
  | { T.kind = T.Keyword; content; _ } -> (
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
            | { T.kind = T.Group_start; content = "("; _ } -> true
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
  | _ -> parse_pipeline_statement st

and parse_optional_pipeline st =
  match peek st with
  | { T.kind = T.Comment; _ } -> None
  | { T.kind = T.New_line | T.Statement_separator | T.Group_end; _ } ->
      None
  | _ -> Some (parse_pipeline st)

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
      (A.Variable_expr (Names.variable var_tok.T.content))
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
    | { T.kind = T.Command_argument; content; _ }
      when String.length content > 0 && content.[0] = '-' ->
        ignore (advance st);
        skip_flags ()
    | { T.kind = T.Command_parameter; _ } ->
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
        | { T.kind = T.Command | T.Command_argument | T.Member; content; _ }
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
          | { T.kind = T.Command | T.Command_argument | T.Member; content; _ } ->
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
    | T.Command | T.Command_argument | T.Member | T.Keyword ->
        Names.folded name_tok.T.content
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
        | T.Variable -> if !depth = 1 then names := Names.variable t.T.content :: !names
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
  | ( A.Command_expression lhs,
      { T.kind = T.Operator;
        content = ("=" | "+=" | "-=" | "*=" | "/=" | "%=") as content; _ } ) ->
      let op =
        match content with
        | "=" -> A.Assign
        | "+=" -> A.Plus_assign
        | "-=" -> A.Minus_assign
        | "*=" -> A.Times_assign
        | "/=" -> A.Div_assign
        | _ -> A.Mod_assign
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
  | { T.kind = T.Comment; _ } -> err (cur_position st) "expected pipeline element"
  | { T.kind = T.Command; _ } -> parse_command st start A.Inv_normal None
  | { T.kind = T.Keyword; content; _ } ->
      (* 'foreach'/'where' as command aliases inside pipelines *)
      let name_tok = advance st in
      ignore content;
      let name =
        A.make
          (A.String_const (name_tok.T.content, A.Bare))
          name_tok.T.extent
      in
      parse_command_elements st start A.Inv_normal name
  | { T.kind = T.Operator; content = "&"; _ } ->
      ignore (advance st);
      parse_invocation_target st start A.Inv_call
  | { T.kind = T.Operator; content = "."; _ } ->
      ignore (advance st);
      parse_invocation_target st start A.Inv_dot
  | _ ->
      let e = parse_expression st in
      (* an expression can be followed by command arguments only via call
         operators, so a bare expression is a command-expression element *)
      A.make (A.Command_expression e) e.A.extent

and parse_invocation_target st start inv =
  skip_newlines st;
  let name =
    match peek st with
    | { T.kind = T.Command_argument; _ } ->
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
    | { T.kind = T.Comment; _ } -> continue := false
    | { T.kind = T.New_line | T.Statement_separator | T.Group_end | T.Index_end; _ } ->
        continue := false
    | { T.kind = T.Operator; content = "|" | "||" | "&&"; _ } -> continue := false
    | { T.kind = T.Operator; content = "&"; _ } ->
        (* background operator: consume and stop *)
        ignore (advance st);
        continue := false
    | { T.kind = T.Operator; content = ("2>&1" | "1>&2" | ">" | ">>" | "2>" | "1>" | "2>>" | "1>>" | "<") as redir; _ } ->
        ignore (advance st);
        (* consume a redirection target when one follows *)
        (match peek st with
        | { T.kind = T.Command_argument | T.Number; _ } -> ignore (advance st)
        | t when T.is_string t -> ignore (advance st)
        | _ -> ());
        elements := A.Elem_redirection redir :: !elements
    | { T.kind = T.Command_parameter; content; _ } ->
        ignore (advance st);
        let with_colon = String.length content > 0 && content.[String.length content - 1] = ':' in
        if with_colon then begin
          let value = parse_argument st in
          elements := A.Elem_parameter (Names.parameter content, Some value) :: !elements
        end
        else elements := A.Elem_parameter (Names.parameter content, None) :: !elements
    | { T.kind = T.Keyword; content; _ } ->
        (* keywords as bareword arguments inside a command *)
        let t = advance st in
        ignore content;
        elements :=
          A.Elem_argument (A.make (A.String_const (t.T.content, A.Bare)) t.T.extent)
          :: !elements
    | { T.kind = T.Operator; content; extent; _ } ->
        (* a stray operator in argument position is treated as a literal
           bareword argument, matching PowerShell's generic token gluing *)
        ignore (advance st);
        elements :=
          A.Elem_argument (A.make (A.String_const (content, A.Bare)) extent)
          :: !elements
    | _ ->
        let value = parse_argument st in
        elements := A.Elem_argument value :: !elements
  done;
  node_here st start
    (A.Command
       { A.cmd_invocation = inv;
         cmd_elements = List.rev !elements;
         cmd_key =
           (match name.A.node with
           | A.String_const (s, A.Bare) -> Some (Names.command s)
           | _ -> None) })

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
  | { T.kind = T.Command_argument; _ } ->
      let t = advance st in
      A.make (A.String_const (t.T.content, A.Bare)) t.T.extent
  | { T.kind = T.Number; content; extent; _ } ->
      let t = advance st in
      ignore t;
      A.make (A.Number_const (parse_number_content extent.Extent.start content)) extent
  | _ -> parse_postfix st

(* ---------- expressions ---------- *)

and parse_expression st = parse_binary st 1

(* Precedence climbing over the binary levels, each left-associative: a
   node spans from where its level started to its last token. *)
and parse_binary st min_prec =
  let start = mark st in
  let lhs = ref (parse_range st) in
  let b = ref (binary_at st) in
  while !b.prec >= min_prec do
    let { prec; op; case } = !b in
    ignore (advance st);
    skip_newlines st;
    let rhs = parse_binary st (prec + 1) in
    lhs := node_here st start (A.Binary_expr (op, case, !lhs, rhs));
    b := binary_at st
  done;
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
  | { T.kind = T.Number | T.Variable | T.Splat_variable | T.Type_name
      | T.Group_start | T.String_single | T.String_double
      | T.String_single_here | T.String_double_here; _ } ->
      true
  | { T.kind = T.Operator;
      content = "-" | "+" | "!" | "-not" | "-bnot" | "-join" | "-split" | "++" | "--"; _ } ->
      true
  | _ -> false

and parse_unary st =
  let start = mark st in
  match peek st with
  | { T.kind = T.Operator; content = ("!" | "-not") ; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Not, operand))
  | { T.kind = T.Operator; content = "-bnot"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Bnot, operand))
  | { T.kind = T.Operator; content = "-join"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Ujoin, operand))
  | { T.kind = T.Operator; content = "-split"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Usplit, operand))
  | { T.kind = T.Operator; content = "-"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Negate, operand))
  | { T.kind = T.Operator; content = "+"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Unary_plus, operand))
  | { T.kind = T.Operator; content = "++"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Incr, operand))
  | { T.kind = T.Operator; content = "--"; _ } ->
      ignore (advance st);
      let operand = parse_unary st in
      node_here st start (A.Unary_expr (A.Decr, operand))
  | { T.kind = T.Type_name; content; _ } ->
      let t = advance st in
      if starts_operand st then
        let operand = parse_unary st in
        node_here st start (A.Convert_expr (Names.type_name content, operand))
      else
        let base = A.make (A.Type_literal (Names.type_name content)) t.T.extent in
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
    | { T.kind = T.Operator; content = "."; extent; _ }
      when extent.Extent.start = st.last_stop ->
        ignore (advance st);
        parse_member_after st start lhs ~static:false
    | { T.kind = T.Operator; content = "::"; _ } ->
        ignore (advance st);
        parse_member_after st start lhs ~static:true
    | { T.kind = T.Index_start; _ } ->
        ignore (advance st);
        let saved = st.no_comma in
        st.no_comma <- false;
        skip_newlines st;
        let idx = parse_expression st in
        st.no_comma <- saved;
        skip_newlines st;
        (match peek st with
        | { T.kind = T.Index_end; _ } -> ignore (advance st)
        | _ -> err (cur_position st) "expected ']'");
        lhs := node_here st start (A.Index_expr (!lhs, idx))
    | { T.kind = T.Operator; content = "++"; _ } ->
        ignore (advance st);
        lhs := node_here st start (A.Postfix_expr (A.Incr, !lhs))
    | { T.kind = T.Operator; content = "--"; _ } ->
        ignore (advance st);
        lhs := node_here st start (A.Postfix_expr (A.Decr, !lhs))
    | _ -> continue := false
  done;
  !lhs

and parse_member_after st start lhs ~static =
  let member =
    match peek st with
    | { T.kind = T.Member; _ } ->
        let t = advance st in
        A.Member_name (Names.folded t.T.content)
    | { T.kind = T.Variable; _ } ->
        let t = advance st in
        A.Member_dynamic
          (A.make
             (A.Variable_expr (Names.variable t.T.content))
             t.T.extent)
    | t when T.is_string t ->
        let e = parse_primary st in
        A.Member_dynamic e
    | _ -> err (cur_position st) "expected member name"
  in
  (* method call: '(' must be adjacent *)
  match peek st with
  | { T.kind = T.Group_start; content = "("; extent; _ }
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
  | { T.kind = T.Comment; _ } -> err (cur_position st) "expected an expression"
  | { T.kind = T.Number; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Number_const (parse_number_content extent.Extent.start content)) extent
  | { T.kind = T.String_single; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Single_quoted)) extent
  | { T.kind = T.String_single_here; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Single_here)) extent
  | ({ T.kind = T.String_double; _ } as t) ->
      ignore (advance st);
      parse_expandable st t A.Double_quoted
  | ({ T.kind = T.String_double_here; _ } as t) ->
      ignore (advance st);
      parse_expandable st t A.Double_here
  | { T.kind = T.Variable; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Variable_expr (Names.variable content)) extent
  | { T.kind = T.Splat_variable; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Variable_expr (Names.variable ~splat:true content)) extent
  | { T.kind = T.Type_name; content; extent; _ } ->
      ignore (advance st);
      A.make (A.Type_literal (Names.type_name content)) extent
  | { T.kind = T.Group_start; content = "("; _ } ->
      ignore (advance st);
      let saved = st.no_comma in
      st.no_comma <- false;
      skip_separators st;
      let inner = parse_statement st in
      skip_separators st;
      st.no_comma <- saved;
      expect_group_end st ")";
      node_here st start (A.Paren_expr inner)
  | { T.kind = T.Group_start; content = "$("; _ } ->
      ignore (advance st);
      let saved = st.no_comma in
      st.no_comma <- false;
      let stmts = parse_statement_list st ~closing:(Some ")") in
      st.no_comma <- saved;
      expect_group_end st ")";
      node_here st start (A.Sub_expr stmts)
  | { T.kind = T.Group_start; content = "@("; _ } ->
      ignore (advance st);
      let saved = st.no_comma in
      st.no_comma <- false;
      let stmts = parse_statement_list st ~closing:(Some ")") in
      st.no_comma <- saved;
      expect_group_end st ")";
      node_here st start (A.Array_expr stmts)
  | { T.kind = T.Group_start; content = "@{"; _ } ->
      ignore (advance st);
      let pairs = parse_hash_entries st in
      expect_group_end st "}";
      node_here st start (A.Hash_literal pairs)
  | { T.kind = T.Group_start; content = "{"; _ } ->
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
  | { T.kind = T.Command_argument; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Bare)) extent
  | { T.kind = T.Command; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Bare)) extent
  | { T.kind = T.Member; content; extent; _ } ->
      ignore (advance st);
      A.make (A.String_const (content, A.Bare)) extent
  | t ->
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
        | { T.kind = T.Member | T.Command | T.Command_argument; content; _ } ->
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
  (* nothing expands without a '$' *)
  if not (String.contains raw '$') then
    A.make (A.String_const (tok.T.content, quote_kind)) tok.T.extent
  else begin
    let ext = tok.T.extent in
    let base = ext.Extent.start in
    (* body bounds inside raw text *)
    let body_start =
      match quote_kind with
      | A.Double_quoted -> 1
      | A.Double_here -> (
          match String.index raw '\n' with
          | i -> i + 1
          | exception Not_found -> 2)
      | A.Bare | A.Single_quoted | A.Single_here -> 0
    in
    let n =
      match quote_kind with
      | A.Double_quoted -> String.length raw - 1
      | A.Double_here -> String.length raw - 3
      | A.Bare | A.Single_quoted | A.Single_here -> String.length raw
    in
    let parts = ref [] and expanded = ref false in
    let text_buf = Buffer.create 16 in
    let i = ref body_start in
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
      else if
        c = '$' && !i + 1 < n
        && (match raw.[!i + 1] with
           | '(' | '{' -> true
           | c2 -> is_var_char c2)
      then begin
        let c2 = raw.[!i + 1] in
        if c2 = '(' then begin
          (* find matching close paren *)
          let close =
            find_matching_paren ~err_pos:(base + !i) raw (!i + 1) n
          in
          parts := flush_text text_buf !parts;
          let inner_start = !i + 2 in
          let fragment = String.sub raw inner_start (close - inner_start) in
          let sub =
            parse_fragment_internal ~src:st.src ~offset:(base + inner_start)
              fragment
          in
          let sub_ext =
            Extent.make ~start:(base + !i) ~stop:(base + close + 1)
          in
          let stmts =
            match sub.A.node with
            | A.Script_block b -> b.A.sb_statements
            | _ -> []
          in
          parts := A.Part_subexpr (A.make (A.Sub_expr stmts) sub_ext) :: !parts;
          expanded := true;
          i := close + 1
        end
        else if c2 = '{' then begin
          let close = brace_end raw n (!i + 2) in
          if close < 0 then begin
            (* no closing brace: the '$' is text *)
            Buffer.add_char text_buf c;
            incr i
          end
          else begin
            parts := flush_text text_buf !parts;
            let name = String.sub raw (!i + 2) (close - !i - 2) in
            let vext =
              Extent.make ~start:(base + !i) ~stop:(base + close + 1)
            in
            parts := A.Part_variable (Names.variable name, vext) :: !parts;
            expanded := true;
            i := close + 1
          end
        end
        else begin
          let j = expandable_name_end raw n (!i + 1) in
          parts := flush_text text_buf !parts;
          let name = String.sub raw (!i + 1) (j - !i - 1) in
          let vext = Extent.make ~start:(base + !i) ~stop:(base + j) in
          parts := A.Part_variable (Names.variable name, vext) :: !parts;
          expanded := true;
          i := j
        end
      end
      else begin
        (* this character and the plain run after it, as they are *)
        let j = plain_end raw n (!i + 1) in
        Buffer.add_substring text_buf raw !i (j - !i);
        i := j
      end
    done;
    if !expanded then
      A.make
        (A.Expandable_string
           (tok.T.content, List.rev (flush_text text_buf !parts)))
        ext
    else A.make (A.String_const (tok.T.content, quote_kind)) ext
  end

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
      let st2 =
        { src; toks = token_array ~offset toks; pos = 0; last_stop = offset;
          no_comma = false }
      in
      let sb = parse_script_block st2 ~closing:None in
      if not (at_end st2) then err (cur_position st2) "trailing tokens in fragment";
      sb

(* ---------- entry points ---------- *)

(* every whole-script parse, whichever entry point it came through *)
let m_parses = Pscommon.Telemetry.Metrics.counter "psparse.parses"

let parse_tokens src toks =
  Pscommon.Telemetry.Metrics.incr m_parses;
  let st =
    { src; toks = token_array ~offset:0 toks; pos = 0; last_stop = 0;
      no_comma = false }
  in
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

let text_and_ast p = (p.text, p.ast)

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
