(* The hot paths read characters in place and allocate only what a token
   keeps: its record, its extent, and its content and text when they are
   not a fixed spelling.  Scans are top-level recursions over indices, so
   they build no closure; a lookahead past the end reads as '\000', which no
   branch tests for; and operators, keywords and dash operators resolve to
   one shared spelling each, with no substring or folded copy. *)

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

(* ---------- caseless spelling tables ---------- *)

(* Lowercase spellings bucketed by length.  [find table s off len] is the
   table's spelling of [s.[off .. off+len-1]] compared caselessly, or [""]
   when it has none. *)
let table_of words =
  let longest = List.fold_left (fun m w -> max m (String.length w)) 0 words in
  let t = Array.make (longest + 1) [] in
  List.iter (fun w -> t.(String.length w) <- w :: t.(String.length w)) words;
  t

let rec caseless_at s off w i n =
  i = n
  || Char.lowercase_ascii (String.unsafe_get s (off + i)) = String.unsafe_get w i
     && caseless_at s off w (i + 1) n

let rec find_spelling s off len = function
  | [] -> ""
  | w :: rest ->
      if caseless_at s off w 0 len then w else find_spelling s off len rest

let find table s off len =
  if len < Array.length table then find_spelling s off len table.(len) else ""

let keyword_table = table_of keywords
let dash_table = table_of (List.map (fun w -> "-" ^ w) dash_operators)
let is_keyword w = find keyword_table w 0 (String.length w) <> ""

let keyword_canonical w =
  match find keyword_table w 0 (String.length w) with "" -> None | k -> Some k

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
  mutable after_type : bool;  (* the last token was a type literal *)
  mutable frames : int list;
      (* one per open group: the ctx it saved, times two, plus one for @{ *)
  mutable acc : Token.t list;
}

let at st i = if i < st.len then String.unsafe_get st.src i else '\000'

(* [text] is the source slice from [st.pos] to [stop] *)
let emit_text st kind content text stop =
  st.acc <-
    { Token.kind; content; text; extent = Extent.make ~start:st.pos ~stop }
    :: st.acc;
  st.pos <- stop;
  st.after_type <- kind = Token.Type_name

let slice st stop = String.sub st.src st.pos (stop - st.pos)

(* a token whose content is its text *)
let emit_slice st kind stop =
  let s = slice st stop in
  emit_text st kind s s stop

let rec same_at s off w i n =
  i = n
  || String.unsafe_get s (off + i) = String.unsafe_get w i
     && same_at s off w (i + 1) n

(* a token whose content may or may not be its text: share the content
   when it is *)
let emit st kind content stop =
  let n = stop - st.pos in
  let text =
    if String.length content = n && same_at st.src st.pos content 0 n then
      content
    else slice st stop
  in
  emit_text st kind content text stop

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

let rec ident_end s n i =
  if i < n && is_ident_char (String.unsafe_get s i) then ident_end s n (i + 1)
  else i

(* the first [c] at or after [i], or [-1] *)
let rec index_of s n c i =
  if i >= n then -1 else if String.unsafe_get s i = c then i else index_of s n c (i + 1)

(* ---------- group frames ---------- *)

let ctx_code = function Cmd_start -> 0 | Cmd_args -> 2 | Expr -> 4 | Hash -> 6

let push_group st ~hash =
  st.frames <- (ctx_code st.ctx + if hash then 1 else 0) :: st.frames

(* the ctx the innermost group saved *)
let pop_group st =
  match st.frames with
  | [] -> Cmd_start
  | top :: rest ->
      st.frames <- rest;
      (match top lsr 1 with 0 -> Cmd_start | 1 -> Cmd_args | 2 -> Expr | _ -> Hash)

let after_group_ctx saved = match saved with Cmd_start -> Expr | c -> c

let ctx_after_separator st =
  match st.frames with top :: _ when top land 1 = 1 -> Hash | _ -> Cmd_start

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

let rec single_escaped s n buf start i =
  if i >= n then fail start "unterminated single-quoted string"
  else
    match String.unsafe_get s i with
    | '\'' when i + 1 < n && String.unsafe_get s (i + 1) = '\'' ->
        Buffer.add_char buf '\'';
        single_escaped s n buf start (i + 2)
    | '\'' -> i + 1
    | c ->
        Buffer.add_char buf c;
        single_escaped s n buf start (i + 1)

let lex_single_string st =
  let start = st.pos in
  let q = index_of st.src st.len '\'' (start + 1) in
  if q < 0 then fail start "unterminated single-quoted string"
  else if q + 1 >= st.len || st.src.[q + 1] <> '\'' then
    (* no '' escape: the content is the text between the quotes *)
    emit_text st Token.String_single
      (String.sub st.src (start + 1) (q - start - 1))
      (slice st (q + 1)) (q + 1)
  else
    let buf = Buffer.create 16 in
    let stop = single_escaped st.src st.len buf start (start + 1) in
    emit_text st Token.String_single (Buffer.contents buf) (slice st stop) stop

let rec double_escaped s n buf start i =
  if i >= n then fail start "unterminated double-quoted string"
  else
    match String.unsafe_get s i with
    | '"' when i + 1 < n && String.unsafe_get s (i + 1) = '"' ->
        Buffer.add_char buf '"';
        double_escaped s n buf start (i + 2)
    | '"' -> i + 1
    | '`' when i + 1 < n ->
        Buffer.add_char buf (backtick_escape (String.unsafe_get s (i + 1)));
        double_escaped s n buf start (i + 2)
    | c ->
        Buffer.add_char buf c;
        double_escaped s n buf start (i + 1)

(* the closing quote of a double-quoted string with no escape in it, or
   [-1] at the first [""] or backtick escape *)
let rec plain_double_end s n i =
  if i >= n then -1
  else
    match String.unsafe_get s i with
    | '"' -> if i + 1 < n && String.unsafe_get s (i + 1) = '"' then -1 else i
    | '`' when i + 1 < n -> -1
    | _ -> plain_double_end s n (i + 1)

let lex_double_string st =
  let start = st.pos in
  let q = plain_double_end st.src st.len (start + 1) in
  if q >= 0 then
    emit_text st Token.String_double
      (String.sub st.src (start + 1) (q - start - 1))
      (slice st (q + 1)) (q + 1)
  else
    let buf = Buffer.create 16 in
    let stop = double_escaped st.src st.len buf start (start + 1) in
    emit_text st Token.String_double (Buffer.contents buf) (slice st stop) stop

(* terminator: newline, quote, '@' — PowerShell requires the terminator at
   the start of a line *)
let rec here_terminator s n quote i =
  if i + 1 >= n then -1
  else if
    String.unsafe_get s i = '\n' && i + 2 <= n - 1
    && String.unsafe_get s (i + 1) = quote
    && String.unsafe_get s (i + 2) = '@'
  then i
  else here_terminator s n quote (i + 1)

let lex_here_string st ~quote =
  let start = st.pos in
  (* st.pos at '@', quote char follows *)
  let header_nl = index_of st.src st.len '\n' st.pos in
  if header_nl < 0 then fail start "malformed here-string header";
  let body_start = header_nl + 1 in
  let nl = here_terminator st.src st.len quote (body_start - 1) in
  if nl < 0 then fail start "unterminated here-string";
  (* strip one trailing \r for CRLF sources *)
  let body_stop =
    if nl > body_start && st.src.[nl - 1] = '\r' then nl - 1 else max body_start nl
  in
  let kind =
    if quote = '\'' then Token.String_single_here else Token.String_double_here
  in
  emit_text st kind
    (String.sub st.src body_start (body_stop - body_start))
    (slice st (nl + 3)) (nl + 3)

(* ---------- numbers ---------- *)

let is_number_delimiter c =
  match c with
  | ' ' | '\t' | '\n' | '\r' | ')' | ']' | '}' | ';' | ',' | '|' | '+' | '-'
  | '*' | '/' | '%' | '.' | '=' | '(' | '[' | '!' | '>' | '<' | '&' | '"'
  | '\'' | '`' | '{' | '#' | '@' ->
      true
  | _ -> false

let rec digits_end s n i =
  if i < n && is_digit (String.unsafe_get s i) then digits_end s n (i + 1) else i

let rec hex_digits_end s n i =
  if
    i < n
    && (match String.unsafe_get s i with
       | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
       | _ -> false)
  then hex_digits_end s n (i + 1)
  else i

(* The stop of a number starting at [i] and ending at a delimiter, or [-1].
   The number's text is its content. *)
let number_stop st i =
  let s = st.src and n = st.len in
  let j = ref i and digits_seen = ref false in
  if i + 1 < n && s.[i] = '0' && (s.[i + 1] = 'x' || s.[i + 1] = 'X') then begin
    j := hex_digits_end s n (i + 2);
    digits_seen := !j > i + 2
  end
  else begin
    j := digits_end s n i;
    digits_seen := !j > i;
    if !j < n && s.[!j] = '.' && !j + 1 < n && is_digit s.[!j + 1] then begin
      j := digits_end s n (!j + 1);
      digits_seen := true
    end;
    if !digits_seen && !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      let k =
        if !j + 1 < n && (s.[!j + 1] = '+' || s.[!j + 1] = '-') then !j + 2
        else !j + 1
      in
      let k' = digits_end s n k in
      if k' > k then j := k'
    end
  end;
  if not !digits_seen then -1
  else
    let j = !j in
    (* magnitude suffix, else a type suffix *)
    let j2 =
      if
        j + 1 < n
        && (match Char.lowercase_ascii s.[j] with
           | 'k' | 'm' | 'g' | 't' | 'p' -> true
           | _ -> false)
        && (s.[j + 1] = 'b' || s.[j + 1] = 'B')
      then j + 2
      else if j < n && (match s.[j] with 'l' | 'L' | 'd' | 'D' -> true | _ -> false)
      then j + 1
      else j
    in
    if j2 >= n || is_number_delimiter s.[j2] then j2 else -1

(* ---------- barewords ---------- *)

(* The stop of a bareword starting at [start].  Outside double quotes a
   backtick escapes the next character literally (`n and `t sequences only
   apply inside double quotes); a backtick before a newline ends the
   word. *)
let rec bareword_end s n start brackets i =
  if i >= n then i
  else
    let c = String.unsafe_get s i in
    if ends_bareword c then i
    else if c = '`' && i + 1 < n then
      match String.unsafe_get s (i + 1) with
      | '\n' | '\r' -> i
      | _ -> bareword_end s n start brackets (i + 2)
    else if brackets && (c = '[' || c = ']' || c = '=') then i
    else if c = '#' && i = start then i
    else bareword_end s n start brackets (i + 1)

let rec has_tick s i stop =
  i < stop && (String.unsafe_get s i = '`' || has_tick s (i + 1) stop)

let rec unescape s buf i stop =
  if i < stop then
    if String.unsafe_get s i = '`' && i + 1 < stop then begin
      Buffer.add_char buf (String.unsafe_get s (i + 1));
      unescape s buf (i + 2) stop
    end
    else begin
      Buffer.add_char buf (String.unsafe_get s i);
      unescape s buf (i + 1) stop
    end

(* the stop of the bareword at st.pos *)
let bareword_stop st ~brackets =
  let stop = bareword_end st.src st.len st.pos brackets st.pos in
  if stop = st.pos then
    fail st.pos (Printf.sprintf "unexpected character %C" st.src.[st.pos]);
  stop

(* its content: backtick escapes resolved, the source slice itself when it
   has none *)
let bareword_content st stop =
  if has_tick st.src st.pos stop then begin
    let buf = Buffer.create (stop - st.pos) in
    unescape st.src buf st.pos stop;
    Buffer.contents buf
  end
  else slice st stop

(* ---------- type literals ---------- *)

let rec type_end s n i depth =
  if i >= n then -1
  else
    match String.unsafe_get s i with
    | '[' -> type_end s n (i + 1) (depth + 1)
    | ']' -> if depth = 1 then i + 1 else type_end s n (i + 1) (depth - 1)
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | ',' | ' ' | '+' ->
        type_end s n (i + 1) depth
    | _ -> -1

(* st.pos at '[': the stop of a balanced type name, or [-1] if it doesn't
   look like one *)
let type_stop st =
  match at st (st.pos + 1) with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '[' ->
      let stop = type_end st.src st.len (st.pos + 1) 1 in
      if stop - st.pos > 2 then stop else -1
  | _ -> -1

(* ---------- variables ---------- *)

(* $env:name: identifier characters and drive colons *)
let rec variable_end s n i =
  if i < n && is_ident_char (String.unsafe_get s i) then variable_end s n (i + 1)
  else if i + 1 < n && String.unsafe_get s i = ':' && is_ident_char (String.unsafe_get s (i + 1))
  then variable_end s n (i + 1)
  else i

let lex_variable st =
  (* st.pos at '$' *)
  let start = st.pos in
  match at st (start + 1) with
  | '{' ->
      let close = index_of st.src st.len '}' (start + 2) in
      if close < 0 then fail start "unterminated ${...} variable";
      emit_text st Token.Variable
        (String.sub st.src (start + 2) (close - start - 2))
        (slice st (close + 1)) (close + 1)
  | '$' -> emit_text st Token.Variable "$" "$$" (start + 2)
  | '?' -> emit_text st Token.Variable "?" "$?" (start + 2)
  | '^' -> emit_text st Token.Variable "^" "$^" (start + 2)
  | c when is_ident_char c ->
      let stop = variable_end st.src st.len (start + 1) in
      emit_text st Token.Variable
        (String.sub st.src (start + 1) (stop - start - 1))
        (slice st stop) stop
  | _ -> fail start "bare '$' is not a variable"

(* ---------- main loop ---------- *)

let rec skip_ws st =
  if st.pos < st.len && is_space (String.unsafe_get st.src st.pos) then begin
    st.pos <- st.pos + 1;
    st.after_value <- false;
    skip_ws st
  end

(* a fixed-spelling token *)
let emit_op st kind op =
  emit_text st kind op op (st.pos + String.length op)

(* a value ends a command-start position *)
let value_done st =
  if st.ctx = Cmd_start then st.ctx <- Expr;
  st.after_value <- true

let open_group st kind op ~hash ctx =
  push_group st ~hash;
  emit_op st kind op;
  st.ctx <- ctx;
  st.after_value <- false

let separator st kind content text stop =
  emit_text st kind content text stop;
  st.ctx <- ctx_after_separator st;
  st.after_value <- false

(* a stream redirection at st.pos in argument position, or [""] *)
let redirection st =
  let c = at st st.pos in
  if (c = '1' || c = '2') && at st (st.pos + 1) = '>' then
    let c2 = at st (st.pos + 2) in
    let other = if c = '2' then '1' else '2' in
    if c2 = '&' && at st (st.pos + 3) = other then
      if c = '2' then "2>&1" else "1>&2"
    else if c2 = '>' then if c = '2' then "2>>" else "1>>"
    else if c = '2' then "2>"
    else "1>"
  else ""

(* a '-' at st.pos, [c1] after it *)
let lex_dash st c1 =
  let pos = st.pos in
  if is_ident_char c1 && not (is_digit c1) then begin
    let stop = ident_end st.src st.len (pos + 1) in
    if st.ctx = Cmd_args then begin
      (* in argument position a -word is always a parameter *)
      let stop = if at st stop = ':' then stop + 1 else stop in
      emit_slice st Token.Command_parameter stop;
      st.after_value <- false
    end
    else
      match find dash_table st.src pos (stop - pos) with
      | "" ->
          (* '-word' in expression position that is not an operator: lex
             as argument-like bareword (PowerShell errors later) *)
          emit_slice st Token.Command_argument stop;
          st.after_value <- true
      | op ->
          emit st Token.Operator op stop;
          if st.ctx = Cmd_start then st.ctx <- Expr;
          st.after_value <- false
  end
  else
    let number = if st.ctx = Cmd_args then number_stop st (pos + 1) else -1 in
    if number >= 0 then begin
      emit_slice st Token.Number number;
      st.after_value <- true
    end
    else begin
      let op = if c1 = '-' then "--" else if c1 = '=' then "-=" else "-" in
      emit_op st Token.Operator op;
      if st.ctx <> Cmd_args then
        if c1 = '=' then st.ctx <- Cmd_start
        else if st.ctx = Cmd_start then st.ctx <- Expr;
      st.after_value <- false
    end

let rec step st =
  skip_ws st;
  if st.pos >= st.len then false
  else begin
    let pos = st.pos in
    let c = String.unsafe_get st.src pos in
    let c1 = at st (pos + 1) in
    (match c with
    | '`' when c1 = '\n' ->
        emit_text st Token.Line_continuation "" "`\n" (pos + 2);
        st.after_value <- false
    | '`' when c1 = '\r' ->
        if at st (pos + 2) = '\n' then
          emit_text st Token.Line_continuation "" "`\r\n" (pos + 3)
        else emit_text st Token.Line_continuation "" "`\r" (pos + 2);
        st.after_value <- false
    | '\n' -> separator st Token.New_line "\n" "\n" (pos + 1)
    | '\r' ->
        if c1 = '\n' then separator st Token.New_line "\n" "\r\n" (pos + 2)
        else separator st Token.New_line "\n" "\r" (pos + 1)
    | ';' -> separator st Token.Statement_separator ";" ";" (pos + 1)
    | '#' ->
        let nl = index_of st.src st.len '\n' pos in
        emit_slice st Token.Comment (if nl < 0 then st.len else nl);
        st.after_value <- false
    | '<' when c1 = '#' ->
        let rec find i =
          if i + 1 >= st.len then fail pos "unterminated block comment"
          else if st.src.[i] = '#' && st.src.[i + 1] = '>' then i + 2
          else find (i + 1)
        in
        emit_slice st Token.Comment (find (pos + 2));
        st.after_value <- false
    | '|' ->
        emit_op st Token.Operator (if c1 = '|' then "||" else "|");
        st.ctx <- Cmd_start;
        st.after_value <- false
    | '(' -> open_group st Token.Group_start "(" ~hash:false Cmd_start
    | '{' -> open_group st Token.Group_start "{" ~hash:false Cmd_start
    | ')' ->
        let saved = pop_group st in
        emit_op st Token.Group_end ")";
        st.ctx <- after_group_ctx saved;
        st.after_value <- true
    | '}' ->
        ignore (pop_group st);
        emit_op st Token.Group_end "}";
        (* a '}' usually closes a statement block: 'else', 'catch', … may
           follow; member access after a script-block literal still works
           because '.' checks after_value before ctx *)
        st.ctx <- Cmd_start;
        st.after_value <- true
    | ']' ->
        let saved = pop_group st in
        emit_op st Token.Index_end "]";
        st.ctx <- after_group_ctx saved;
        st.after_value <- true
    | '[' ->
        let stop = type_stop st in
        if ((not st.after_value) || st.after_type) && stop >= 0 then begin
          emit_text st Token.Type_name
            (String.sub st.src (pos + 1) (stop - pos - 2))
            (slice st stop) stop;
          value_done st
        end
        else open_group st Token.Index_start "[" ~hash:false Expr
    | '\'' ->
        lex_single_string st;
        value_done st
    | '"' ->
        lex_double_string st;
        value_done st
    | '@' -> (
        match c1 with
        | '(' -> open_group st Token.Group_start "@(" ~hash:false Cmd_start
        | '{' -> open_group st Token.Group_start "@{" ~hash:true Hash
        | '\'' | '"' ->
            lex_here_string st ~quote:c1;
            value_done st
        | c2 when is_ident_char c2 ->
            let stop = ident_end st.src st.len (pos + 1) in
            emit_text st Token.Splat_variable
              (String.sub st.src (pos + 1) (stop - pos - 1))
              (slice st stop) stop;
            st.after_value <- true
        | _ -> fail pos "unexpected '@'")
    | '$' ->
        if c1 = '(' then open_group st Token.Group_start "$(" ~hash:false Cmd_start
        else begin
          lex_variable st;
          value_done st
        end
    | '-' -> lex_dash st c1
    | '.' ->
        if c1 = '.' then begin
          (* range operator *)
          emit_op st Token.Operator "..";
          if st.ctx = Cmd_start then st.ctx <- Expr;
          st.after_value <- false
        end
        else if st.after_value then begin
          (* member access *)
          emit_op st Token.Operator ".";
          st.after_value <- false;
          skip_member st
        end
        else if is_digit c1 && st.ctx <> Cmd_args then begin
          let stop = number_stop st pos in
          if stop < 0 then fail pos "malformed number";
          emit_slice st Token.Number stop;
          value_done st
        end
        else if
          st.ctx = Cmd_start
          && match c1 with ' ' | '\t' | '$' | '\'' | '"' | '(' -> true | _ -> false
        then begin
          (* dot-source / call operator *)
          emit_op st Token.Operator ".";
          st.ctx <- Cmd_args;
          st.after_value <- false
        end
        else if st.ctx = Cmd_start || st.ctx = Cmd_args then lex_bareword_token st
        else begin
          emit_op st Token.Operator ".";
          st.after_value <- false
        end
    | '&' ->
        emit_op st Token.Operator (if c1 = '&' then "&&" else "&");
        if st.ctx = Cmd_start then st.ctx <- Cmd_args;
        st.after_value <- false
    | '%' when st.ctx = Cmd_start ->
        (* '%' at command position is the ForEach-Object alias *)
        emit_op st Token.Command "%";
        st.ctx <- Cmd_args;
        st.after_value <- false
    | '=' | '+' | '*' | '/' | '%' | '!' | ',' | '>' | '<' | ':' ->
        let op =
          match c with
          | '+' -> if c1 = '=' then "+=" else if c1 = '+' then "++" else "+"
          | '*' -> if c1 = '=' then "*=" else "*"
          | '/' -> if c1 = '=' then "/=" else "/"
          | '%' -> if c1 = '=' then "%=" else "%"
          | '>' -> if c1 = '>' then ">>" else ">"
          | ':' -> if c1 = ':' then "::" else ":"
          | '=' -> "="
          | '!' -> "!"
          | ',' -> ","
          | _ -> "<"
        in
        emit_op st Token.Operator op;
        st.after_value <- false;
        if c = ':' && c1 = ':' then skip_member st
        else if c = '=' || (c1 = '=' && String.length op = 2) then
          (* the right-hand side of an assignment is a full statement: a
             bareword there is a command *)
          st.ctx <- Cmd_start
        else if st.ctx = Cmd_start then st.ctx <- Expr
    | '0' .. '9' when st.ctx <> Cmd_args ->
        let stop = number_stop st pos in
        if stop >= 0 then begin
          emit_slice st Token.Number stop;
          value_done st
        end
        else lex_bareword_token st
    | _ -> lex_bareword_token st);
    true
  end

and skip_member st =
  (* after '.' or '::': PowerShell allows horizontal whitespace before the
     member name ($x. Length is legal) *)
  while st.pos < st.len && is_space (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done;
  if st.pos < st.len && is_ident_char (String.unsafe_get st.src st.pos) then begin
    emit_slice st Token.Member (ident_end st.src st.len st.pos);
    st.after_value <- true
  end

and lex_bareword_token st =
  match st.ctx with
  | Cmd_start -> (
      let stop = bareword_stop st ~brackets:false in
      let content = bareword_content st stop in
      match find keyword_table content 0 (String.length content) with
      | "" ->
          emit st Token.Command content stop;
          st.ctx <- Cmd_args;
          st.after_value <- false
      | kw ->
          emit st Token.Keyword kw stop;
          st.ctx <- Cmd_start;
          st.after_value <- false)
  | Cmd_args -> (
      match redirection st with
      | "" ->
          let stop = number_stop st st.pos in
          if stop >= 0 then emit_slice st Token.Number stop
          else begin
            let stop = bareword_stop st ~brackets:false in
            emit st Token.Command_argument (bareword_content st stop) stop
          end;
          st.after_value <- true
      | op ->
          emit_op st Token.Operator op;
          st.after_value <- false)
  | Expr ->
      let stop = bareword_stop st ~brackets:true in
      let content = bareword_content st stop in
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
      let stop = bareword_stop st ~brackets:true in
      emit st Token.Member (bareword_content st stop) stop;
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
      after_type = false;
      frames = [];
      acc = [];
    }
  in
  match
    while step st do
      ()
    done
  with
  | () -> Ok (List.rev st.acc)
  | exception Lex_error e -> Error e

let tokenize_exn src =
  match tokenize src with
  | Ok toks -> toks
  | Error e -> failwith (Printf.sprintf "lex error at %d: %s" e.position e.message)
