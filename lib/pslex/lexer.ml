open Pscommon

type error = { message : string; position : int }

exception Lex_error of error

let fail pos message = raise (Lex_error { message; position = pos })

let keywords =
  [
    "begin"; "break"; "catch"; "class"; "continue"; "data"; "do";
    "dynamicparam"; "else"; "elseif"; "end"; "exit"; "filter"; "finally";
    "for"; "foreach"; "from"; "function"; "hidden"; "if"; "in"; "param";
    "process"; "return"; "static"; "switch"; "throw"; "trap"; "try"; "until";
    "using"; "while"; "workflow";
  ]

let keyword_set =
  List.fold_left (fun acc k -> Strcase.Set.add k acc) Strcase.Set.empty keywords

let is_keyword w = Strcase.Set.mem w keyword_set

let keyword_canonical w =
  if is_keyword w then Some (Strcase.lower w) else None

let dash_operators =
  [
    "f"; "not"; "bnot"; "and"; "or"; "xor"; "band"; "bor"; "bxor"; "eq";
    "ne"; "gt"; "ge"; "lt"; "le"; "like"; "notlike"; "match"; "notmatch";
    "replace"; "split"; "join"; "contains"; "notcontains"; "in"; "notin";
    "is"; "isnot"; "as"; "shl"; "shr";
    (* case-sensitive / explicit-insensitive variants *)
    "ceq"; "cne"; "cgt"; "cge"; "clt"; "cle"; "clike"; "cnotlike"; "cmatch";
    "cnotmatch"; "creplace"; "csplit"; "ccontains"; "cnotcontains"; "cin";
    "cnotin"; "ieq"; "ine"; "igt"; "ige"; "ilt"; "ile"; "ilike"; "inotlike";
    "imatch"; "inotmatch"; "ireplace"; "isplit"; "icontains"; "inotcontains";
    "iin"; "inotin";
  ]

let dash_operator_set =
  List.fold_left (fun acc k -> Strcase.Set.add k acc) Strcase.Set.empty
    dash_operators

(* Lexing context: what a bareword or '-word' means right now. *)
type ctx =
  | Cmd_start  (* start of a statement / pipeline element *)
  | Cmd_args  (* inside a command invocation *)
  | Expr  (* expression *)
  | Hash  (* inside @{ }, expecting a key *)

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable ctx : ctx;
  mutable after_value : bool;
      (* true immediately after a value-like token with no space since *)
  mutable prev_kind : Token.kind option;
  mutable stack : (ctx * string) list;  (* saved ctx, opener text *)
  mutable acc : Token.t list;
}

let cur st = if st.pos < st.len then Some st.src.[st.pos] else None
let peek_at st k = if st.pos + k < st.len then Some st.src.[st.pos + k] else None

let emit st kind content stop =
  let extent = Extent.make ~start:st.pos ~stop in
  let text = Extent.text st.src extent in
  st.acc <- { Token.kind; content; text; extent } :: st.acc;
  st.pos <- stop;
  st.prev_kind <- Some kind

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

let is_space c = c = ' ' || c = '\t'

(* characters that always terminate a bareword *)
let ends_bareword c =
  match c with
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '{' | '}' | ';' | ',' | '|' | '&'
  | '\'' | '"' | '$' ->
      true
  | _ -> false

(* ---------- strings ---------- *)

let backtick_escape c =
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

let lex_single_string st =
  let start = st.pos in
  match String.index_from_opt st.src (start + 1) '\'' with
  | None -> fail start "unterminated single-quoted string"
  | Some q when q + 1 >= st.len || st.src.[q + 1] <> '\'' ->
      (* no '' escape: the content is the text between the quotes *)
      emit st Token.String_single
        (String.sub st.src (start + 1) (q - start - 1))
        (q + 1)
  | Some _ ->
      let buf = Buffer.create 16 in
      let rec loop i =
        if i >= st.len then fail start "unterminated single-quoted string"
        else
          match st.src.[i] with
          | '\'' when i + 1 < st.len && st.src.[i + 1] = '\'' ->
              Buffer.add_char buf '\'';
              loop (i + 2)
          | '\'' -> i + 1
          | c ->
              Buffer.add_char buf c;
              loop (i + 1)
      in
      let stop = loop (start + 1) in
      emit st Token.String_single (Buffer.contents buf) stop

let lex_double_string st =
  let start = st.pos in
  let buf = Buffer.create 16 in
  let rec loop i =
    if i >= st.len then fail start "unterminated double-quoted string"
    else
      match st.src.[i] with
      | '"' when i + 1 < st.len && st.src.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          loop (i + 2)
      | '"' -> i + 1
      | '`' when i + 1 < st.len ->
          Buffer.add_char buf (backtick_escape st.src.[i + 1]);
          loop (i + 2)
      | c ->
          Buffer.add_char buf c;
          loop (i + 1)
  in
  let stop = loop (st.pos + 1) in
  emit st Token.String_double (Buffer.contents buf) stop

let find_here_terminator st ~quote ~from =
  (* terminator: newline, optional spaces?, quote, '@' — PowerShell requires
     the terminator at the start of a line. *)
  let rec scan i =
    if i + 1 >= st.len then None
    else if
      st.src.[i] = '\n' && i + 2 <= st.len - 1 && st.src.[i + 1] = quote
      && st.src.[i + 2] = '@'
    then Some i
    else scan (i + 1)
  in
  scan from

let lex_here_string st ~quote =
  let start = st.pos in
  (* st.pos at '@', quote char follows *)
  let body_start =
    match String.index_from_opt st.src st.pos '\n' with
    | Some nl -> nl + 1
    | None -> fail start "malformed here-string header"
  in
  match find_here_terminator st ~quote ~from:(body_start - 1) with
  | None -> fail start "unterminated here-string"
  | Some nl ->
      let raw = String.sub st.src body_start (max 0 (nl - body_start)) in
      (* strip one trailing \r for CRLF sources *)
      let raw =
        if String.length raw > 0 && raw.[String.length raw - 1] = '\r' then
          String.sub raw 0 (String.length raw - 1)
        else raw
      in
      let kind =
        if quote = '\'' then Token.String_single_here else Token.String_double_here
      in
      emit st kind raw (nl + 3)

(* ---------- numbers ---------- *)

let number_end st i =
  (* Returns Some (stop, canonical) if src[i..] starts a number ending at a
     delimiter. *)
  let n = st.len in
  let hex = i + 1 < n && st.src.[i] = '0' && (st.src.[i + 1] = 'x' || st.src.[i + 1] = 'X') in
  let j = ref (if hex then i + 2 else i) in
  let digits_seen = ref false in
  if hex then begin
    while
      !j < n
      && (match st.src.[!j] with
         | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
         | _ -> false)
    do
      digits_seen := true;
      incr j
    done
  end
  else begin
    while !j < n && is_digit st.src.[!j] do
      digits_seen := true;
      incr j
    done;
    if !j < n && st.src.[!j] = '.' && !j + 1 < n && is_digit st.src.[!j + 1] then begin
      incr j;
      while !j < n && is_digit st.src.[!j] do
        digits_seen := true;
        incr j
      done
    end;
    if !digits_seen && !j < n && (st.src.[!j] = 'e' || st.src.[!j] = 'E') then begin
      let k = if !j + 1 < n && (st.src.[!j + 1] = '+' || st.src.[!j + 1] = '-') then !j + 2 else !j + 1 in
      let k' = ref k in
      while !k' < n && is_digit st.src.[!k'] do
        incr k'
      done;
      if !k' > k then j := !k'
    end
  end;
  if not !digits_seen then None
  else begin
    (* magnitude suffix *)
    let j2 =
      if !j + 1 < n then
        let two = Strcase.lower (String.sub st.src !j (min 2 (n - !j))) in
        if List.mem two [ "kb"; "mb"; "gb"; "tb"; "pb" ] then !j + 2 else !j
      else !j
    in
    let j2 =
      if j2 = !j && j2 < n && (st.src.[j2] = 'l' || st.src.[j2] = 'L' || st.src.[j2] = 'd' || st.src.[j2] = 'D') then j2 + 1
      else j2
    in
    let delimited =
      j2 >= n
      ||
      match st.src.[j2] with
      | ' ' | '\t' | '\n' | '\r' | ')' | ']' | '}' | ';' | ',' | '|' | '+'
      | '-' | '*' | '/' | '%' | '.' | '=' | '(' | '[' | '!' | '>' | '<' | '&'
      | '"' | '\'' | '`' | '{' | '#' | '@' ->
          true
      | _ -> false
    in
    if delimited then Some (j2, String.sub st.src i (j2 - i)) else None
  end

(* ---------- barewords ---------- *)

(* Read a bareword starting at st.pos, resolving backtick escapes.  Returns
   (content, stop). *)
let read_bareword st ~stop_at_bracket =
  let buf = Buffer.create 16 in
  let rec loop i =
    if i >= st.len then i
    else
      let c = st.src.[i] in
      if ends_bareword c then i
      else if c = '`' && i + 1 < st.len then begin
        (* Outside double quotes the backtick escapes the next character
           literally; `n / `t sequences only apply inside double quotes. *)
        let n = st.src.[i + 1] in
        if n = '\n' || n = '\r' then i
        else begin
          Buffer.add_char buf n;
          loop (i + 2)
        end
      end
      else if (c = '[' || c = ']' || c = '=') && stop_at_bracket then i
      else if c = '#' && Buffer.length buf = 0 then i
      else begin
        Buffer.add_char buf c;
        loop (i + 1)
      end
  in
  let stop = loop st.pos in
  (Buffer.contents buf, stop)

(* ---------- type literals ---------- *)

let lex_type st =
  (* st.pos at '['.  Scan for a balanced type name; None if it doesn't look
     like one. *)
  let rec scan i depth started =
    if i >= st.len then None
    else
      match st.src.[i] with
      | '[' -> scan (i + 1) (depth + 1) started
      | ']' -> if depth = 1 then Some (i + 1) else scan (i + 1) (depth - 1) started
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | ',' | ' ' | '+' ->
          scan (i + 1) depth true
      | _ -> None
  in
  match peek_at st 1 with
  | Some ('a' .. 'z' | 'A' .. 'Z' | '_' | '[') -> (
      match scan (st.pos + 1) 1 false with
      | Some stop when stop - st.pos > 2 ->
          let inner = String.sub st.src (st.pos + 1) (stop - st.pos - 2) in
          Some (inner, stop)
      | _ -> None)
  | _ -> None

(* ---------- variables ---------- *)

let lex_variable st =
  (* st.pos at '$' (or after '@' for splatting, handled by caller) *)
  let start = st.pos in
  match peek_at st 1 with
  | Some '{' ->
      let rec scan i =
        if i >= st.len then fail start "unterminated ${...} variable"
        else if st.src.[i] = '}' then i
        else scan (i + 1)
      in
      let close = scan (st.pos + 2) in
      let name = String.sub st.src (st.pos + 2) (close - st.pos - 2) in
      emit st Token.Variable name (close + 1)
  | Some ('$' | '?' | '^') ->
      emit st Token.Variable (String.make 1 st.src.[st.pos + 1]) (st.pos + 2)
  | Some c when is_ident_char c ->
      let rec scan i =
        if i < st.len && is_ident_char st.src.[i] then scan (i + 1)
        else if
          (* drive-qualified: $env:name *)
          i + 1 < st.len && st.src.[i] = ':' && is_ident_char st.src.[i + 1]
        then scan (i + 1)
        else i
      in
      let stop = scan (st.pos + 1) in
      emit st Token.Variable (String.sub st.src (st.pos + 1) (stop - st.pos - 1)) stop
  | _ -> fail start "bare '$' is not a variable"

(* ---------- main loop ---------- *)

let multi_char_operators =
  (* longest first *)
  [
    "2>&1"; "1>&2"; ">>"; "2>"; "1>"; "+="; "-="; "*="; "/="; "%="; "++";
    "--"; ".."; "::"; "&&"; "||"; "!"; "="; ">"; "+"; "-"; "*"; "/"; "%";
    ","; "."; "&"; "|";
  ]

let pop_group st =
  match st.stack with
  | [] -> (Cmd_start, "")
  | top :: rest ->
      st.stack <- rest;
      top

let after_group_ctx saved = match saved with Cmd_start -> Expr | c -> c

let rec skip_ws st =
  match cur st with
  | Some c when is_space c ->
      st.pos <- st.pos + 1;
      st.after_value <- false;
      skip_ws st
  | _ -> ()

let ctx_after_separator st =
  match st.stack with (_, "@{") :: _ -> Hash | _ -> Cmd_start

let lex_dash_word st =
  (* st.pos at '-', letter follows; returns (word, stop) *)
  let rec scan i = if i < st.len && is_ident_char st.src.[i] then scan (i + 1) else i in
  let stop = scan (st.pos + 1) in
  (String.sub st.src (st.pos + 1) (stop - st.pos - 1), stop)

let rec step st =
  skip_ws st;
  match cur st with
  | None -> false
  | Some c ->
      (match c with
      | '`' when peek_at st 1 = Some '\n' ->
          emit st Token.Line_continuation "" (st.pos + 2);
          st.after_value <- false
      | '`' when peek_at st 1 = Some '\r' ->
          let stop = if peek_at st 2 = Some '\n' then st.pos + 3 else st.pos + 2 in
          emit st Token.Line_continuation "" stop;
          st.after_value <- false
      | '\n' ->
          emit st Token.New_line "\n" (st.pos + 1);
          st.ctx <- ctx_after_separator st;
          st.after_value <- false
      | '\r' ->
          let stop = if peek_at st 1 = Some '\n' then st.pos + 2 else st.pos + 1 in
          emit st Token.New_line "\n" stop;
          st.ctx <- ctx_after_separator st;
          st.after_value <- false
      | ';' ->
          emit st Token.Statement_separator ";" (st.pos + 1);
          st.ctx <- ctx_after_separator st;
          st.after_value <- false
      | '#' ->
          let stop =
            match String.index_from_opt st.src st.pos '\n' with
            | Some nl -> nl
            | None -> st.len
          in
          emit st Token.Comment (String.sub st.src st.pos (stop - st.pos)) stop;
          st.after_value <- false
      | '<' when peek_at st 1 = Some '#' ->
          let rec find i =
            if i + 1 >= st.len then fail st.pos "unterminated block comment"
            else if st.src.[i] = '#' && st.src.[i + 1] = '>' then i + 2
            else find (i + 1)
          in
          let stop = find (st.pos + 2) in
          emit st Token.Comment (String.sub st.src st.pos (stop - st.pos)) stop;
          st.after_value <- false
      | '|' ->
          let stop = if peek_at st 1 = Some '|' then st.pos + 2 else st.pos + 1 in
          emit st Token.Operator (String.sub st.src st.pos (stop - st.pos)) stop;
          st.ctx <- Cmd_start;
          st.after_value <- false
      | '(' ->
          st.stack <- (st.ctx, "(") :: st.stack;
          emit st Token.Group_start "(" (st.pos + 1);
          st.ctx <- Cmd_start;
          st.after_value <- false
      | '{' ->
          st.stack <- (st.ctx, "{") :: st.stack;
          emit st Token.Group_start "{" (st.pos + 1);
          st.ctx <- Cmd_start;
          st.after_value <- false
      | ')' ->
          let saved, _opener = pop_group st in
          emit st Token.Group_end ")" (st.pos + 1);
          st.ctx <- after_group_ctx saved;
          st.after_value <- true
      | '}' ->
          let _saved, _opener = pop_group st in
          emit st Token.Group_end "}" (st.pos + 1);
          (* a '}' usually closes a statement block: 'else', 'catch', … may
             follow; member access after a script-block literal still works
             because '.' checks after_value before ctx *)
          st.ctx <- Cmd_start;
          st.after_value <- true
      | ']' ->
          let saved, _opener = pop_group st in
          emit st Token.Index_end "]" (st.pos + 1);
          st.ctx <- after_group_ctx saved;
          st.after_value <- true
      | '[' ->
          let try_type =
            (not st.after_value) || st.prev_kind = Some Token.Type_name
          in
          (match (try_type, lex_type st) with
          | true, Some (inner, stop) ->
              emit st Token.Type_name inner stop;
              if st.ctx = Cmd_start then st.ctx <- Expr;
              st.after_value <- true
          | _ ->
              st.stack <- (st.ctx, "[") :: st.stack;
              emit st Token.Index_start "[" (st.pos + 1);
              st.ctx <- Expr;
              st.after_value <- false)
      | '\'' ->
          lex_single_string st;
          if st.ctx = Cmd_start then st.ctx <- Expr;
          st.after_value <- true
      | '"' ->
          lex_double_string st;
          if st.ctx = Cmd_start then st.ctx <- Expr;
          st.after_value <- true
      | '@' -> (
          match peek_at st 1 with
          | Some '(' ->
              st.stack <- (st.ctx, "@(") :: st.stack;
              emit st Token.Group_start "@(" (st.pos + 2);
              st.ctx <- Cmd_start;
              st.after_value <- false
          | Some '{' ->
              st.stack <- (st.ctx, "@{") :: st.stack;
              emit st Token.Group_start "@{" (st.pos + 2);
              st.ctx <- Hash;
              st.after_value <- false
          | Some '\'' ->
              lex_here_string st ~quote:'\'';
              if st.ctx = Cmd_start then st.ctx <- Expr;
              st.after_value <- true
          | Some '"' ->
              lex_here_string st ~quote:'"';
              if st.ctx = Cmd_start then st.ctx <- Expr;
              st.after_value <- true
          | Some c2 when is_ident_char c2 ->
              let rec scan i = if i < st.len && is_ident_char st.src.[i] then scan (i + 1) else i in
              let stop = scan (st.pos + 1) in
              emit st Token.Splat_variable (String.sub st.src (st.pos + 1) (stop - st.pos - 1)) stop;
              st.after_value <- true
          | _ -> fail st.pos "unexpected '@'")
      | '$' -> (
          match peek_at st 1 with
          | Some '(' ->
              st.stack <- (st.ctx, "$(") :: st.stack;
              emit st Token.Group_start "$(" (st.pos + 2);
              st.ctx <- Cmd_start;
              st.after_value <- false
          | _ ->
              lex_variable st;
              if st.ctx = Cmd_start then st.ctx <- Expr;
              st.after_value <- true)
      | '-' -> (
          match peek_at st 1 with
          | Some c2 when is_ident_char c2 && not (is_digit c2) ->
              let word, stop = lex_dash_word st in
              let is_op = Strcase.Set.mem word dash_operator_set in
              if st.ctx = Cmd_args && not (is_op && false) then begin
                (* in argument position a -word is always a parameter *)
                let stop =
                  if stop < st.len && st.src.[stop] = ':' then stop + 1 else stop
                in
                emit st Token.Command_parameter
                  (String.sub st.src st.pos (stop - st.pos))
                  stop;
                st.after_value <- false
              end
              else if is_op then begin
                emit st Token.Operator (Strcase.lower ("-" ^ word)) stop;
                if st.ctx = Cmd_start then st.ctx <- Expr;
                st.after_value <- false
              end
              else begin
                (* '-word' in expression position that is not an operator:
                   lex as argument-like bareword (PowerShell errors later) *)
                emit st Token.Command_argument ("-" ^ word) stop;
                st.after_value <- true
              end
          | _ ->
              if st.ctx = Cmd_args then begin
                match number_end st (st.pos + 1) with
                | Some (stop, text) when peek_at st 1 <> None ->
                    emit st Token.Number ("-" ^ text) stop;
                    st.after_value <- true
                | _ ->
                    let op_stop =
                      if peek_at st 1 = Some '-' then st.pos + 2
                      else if peek_at st 1 = Some '=' then st.pos + 2
                      else st.pos + 1
                    in
                    emit st Token.Operator (String.sub st.src st.pos (op_stop - st.pos)) op_stop;
                    st.after_value <- false
              end
              else begin
                let op_stop =
                  if peek_at st 1 = Some '-' then st.pos + 2
                  else if peek_at st 1 = Some '=' then st.pos + 2
                  else st.pos + 1
                in
                let op_text = String.sub st.src st.pos (op_stop - st.pos) in
                emit st Token.Operator op_text op_stop;
                if op_text = "-=" then st.ctx <- Cmd_start
                else if st.ctx = Cmd_start then st.ctx <- Expr;
                st.after_value <- false
              end)
      | '.' -> (
          if peek_at st 1 = Some '.' then begin
            (* range operator *)
            emit st Token.Operator ".." (st.pos + 2);
            if st.ctx = Cmd_start then st.ctx <- Expr;
            st.after_value <- false
          end
          else if st.after_value then begin
            (* member access *)
            emit st Token.Operator "." (st.pos + 1);
            st.after_value <- false;
            skip_member st
          end
          else
            match peek_at st 1 with
            | Some c2 when is_digit c2 && st.ctx <> Cmd_args -> (
                match number_end st st.pos with
                | Some (stop, text) ->
                    emit st Token.Number text stop;
                    if st.ctx = Cmd_start then st.ctx <- Expr;
                    st.after_value <- true
                | None -> fail st.pos "malformed number")
            | Some (' ' | '\t' | '$' | '\'' | '"' | '(') when st.ctx = Cmd_start ->
                (* dot-source / call operator *)
                emit st Token.Operator "." (st.pos + 1);
                st.ctx <- Cmd_args;
                st.after_value <- false
            | _ when st.ctx = Cmd_start || st.ctx = Cmd_args ->
                lex_bareword_token st
            | _ ->
                emit st Token.Operator "." (st.pos + 1);
                st.after_value <- false)
      | '&' ->
          let stop = if peek_at st 1 = Some '&' then st.pos + 2 else st.pos + 1 in
          emit st Token.Operator (String.sub st.src st.pos (stop - st.pos)) stop;
          if st.ctx = Cmd_start then st.ctx <- Cmd_args;
          st.after_value <- false
      | '%' when st.ctx = Cmd_start ->
          (* '%' at command position is the ForEach-Object alias *)
          emit st Token.Command "%" (st.pos + 1);
          st.ctx <- Cmd_args;
          st.after_value <- false
      | '=' | '+' | '*' | '/' | '%' | '!' | ',' | '>' | '<' | ':' ->
          let matched =
            List.find_opt
              (fun op ->
                let l = String.length op in
                st.pos + l <= st.len && String.sub st.src st.pos l = op)
              multi_char_operators
          in
          let op = match matched with Some op -> op | None -> String.make 1 c in
          emit st Token.Operator op (st.pos + String.length op);
          if op = "::" then begin
            st.after_value <- false;
            skip_member st
          end
          else begin
            (if List.mem op [ "="; "+="; "-="; "*="; "/="; "%=" ] then
               (* the right-hand side of an assignment is a full statement:
                  a bareword there is a command *)
               st.ctx <- Cmd_start
             else if st.ctx = Cmd_start then st.ctx <- Expr);
            st.after_value <- false
          end
      | '0' .. '9' when st.ctx <> Cmd_args -> (
          match number_end st st.pos with
          | Some (stop, text) ->
              emit st Token.Number text stop;
              if st.ctx = Cmd_start then st.ctx <- Expr;
              st.after_value <- true
          | None -> lex_bareword_token st)
      | _ -> lex_bareword_token st);
      true

and skip_member st =
  (* after '.' or '::': PowerShell allows horizontal whitespace before the
     member name ($x. Length is legal) *)
  while (match cur st with Some c when is_space c -> true | _ -> false) do
    st.pos <- st.pos + 1
  done;
  match cur st with
  | Some c when is_ident_char c ->
      let rec scan i = if i < st.len && is_ident_char st.src.[i] then scan (i + 1) else i in
      let stop = scan st.pos in
      emit st Token.Member (String.sub st.src st.pos (stop - st.pos)) stop;
      st.after_value <- true
  | _ -> ()

and lex_bareword_token st =
  match st.ctx with
  | Cmd_start ->
      let content, stop = read_bareword st ~stop_at_bracket:false in
      if stop = st.pos then fail st.pos (Printf.sprintf "unexpected character %C" st.src.[st.pos]);
      if is_keyword content then begin
        emit st Token.Keyword (Strcase.lower content) stop;
        st.ctx <- Cmd_start;
        st.after_value <- false
      end
      else begin
        emit st Token.Command content stop;
        st.ctx <- Cmd_args;
        st.after_value <- false
      end
  | Cmd_args -> (
      let redirection =
        List.find_opt
          (fun op ->
            let l = String.length op in
            st.pos + l <= st.len && String.sub st.src st.pos l = op)
          [ "2>&1"; "1>&2"; "2>>"; "2>"; "1>>"; "1>" ]
      in
      match redirection with
      | Some op ->
          emit st Token.Operator op (st.pos + String.length op);
          st.after_value <- false
      | None ->
      match number_end st st.pos with
      | Some (stop, text) ->
          emit st Token.Number text stop;
          st.after_value <- true
      | None ->
          let content, stop = read_bareword st ~stop_at_bracket:false in
          if stop = st.pos then fail st.pos (Printf.sprintf "unexpected character %C" st.src.[st.pos]);
          emit st Token.Command_argument content stop;
          st.after_value <- true)
  | Expr ->
      let content, stop = read_bareword st ~stop_at_bracket:true in
      if stop = st.pos then fail st.pos (Printf.sprintf "unexpected character %C" st.src.[st.pos]);
      if Strcase.equal content "in" then begin
        emit st Token.Keyword "in" stop;
        st.ctx <- Cmd_start;
        st.after_value <- false
      end
      else begin
        emit st Token.Command_argument content stop;
        st.after_value <- true
      end
  | Hash ->
      let content, stop = read_bareword st ~stop_at_bracket:true in
      if stop = st.pos then fail st.pos (Printf.sprintf "unexpected character %C" st.src.[st.pos]);
      emit st Token.Member content stop;
      st.after_value <- true

(* every lexer run, fragments included: the front-end cost the pipeline
   hands stage to stage is measured in these *)
let m_tokenizes = Pscommon.Telemetry.Metrics.counter "pslex.tokenizes"

let tokenize src =
  Pscommon.Telemetry.Metrics.incr m_tokenizes;
  let st =
    {
      src;
      len = String.length src;
      pos = 0;
      ctx = Cmd_start;
      after_value = false;
      prev_kind = None;
      stack = [];
      acc = [];
    }
  in
  match
    let continue = ref true in
    while !continue do
      continue := step st
    done
  with
  | () -> Ok (List.rev st.acc)
  | exception Lex_error e -> Error e

let tokenize_exn src =
  match tokenize src with
  | Ok toks -> toks
  | Error e -> failwith (Printf.sprintf "lex error at %d: %s" e.position e.message)
