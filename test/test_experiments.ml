(* Smoke tests for the experiment harnesses (small workloads) and the key
   claims each must exhibit. *)

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let our_tool = Baselines.All_tools.invoke_deobfuscation

let test_table1_small () =
  let r = Experiments.Table1.run ~seed:3 ~count:60 () in
  check_i "total" 60 r.Experiments.Table1.total;
  List.iter
    (fun row ->
      check_b "proportion in range" true
        (row.Experiments.Table1.proportion >= 0.0
        && row.Experiments.Table1.proportion <= 100.0);
      (* the wild distribution puts every level well above half *)
      check_b "level common" true (row.Experiments.Table1.proportion > 50.0))
    r.Experiments.Table1.rows

let test_table2_our_tool_handles_concat () =
  check_b "concat full" true
    (Experiments.Table2.test_cell our_tool Obfuscator.Technique.Str_concat
    = Experiments.Table2.Full)

(* The paper's Table II marks whitespace encoding "x" for its tool: the
   decoder is a loop and Algorithm 1 cannot trace it.  That is still true of
   our static pipeline, but the provenance-guided dynamic stage folds the
   decoder, so the full tool now fills the paper's one empty cell. *)
let static_tool =
  {
    Baselines.Tool.name = "Invoke-Deobfuscation (static)";
    deobfuscate =
      (fun script ->
        let options =
          { Deobf.Engine.default_options with
            recovery =
              { Deobf.Engine.default_options.Deobf.Engine.recovery with
                Deobf.Engine.use_dynamic = false } }
        in
        Baselines.Tool.plain (Pipeline.output ~options script));
  }

let test_table2_whitespace_encoding_static_limit () =
  check_b "whitespace encoding not full statically" true
    (Experiments.Table2.test_cell static_tool Obfuscator.Technique.Enc_whitespace
    <> Experiments.Table2.Full);
  check_b "whitespace encoding full with dynamic recovery" true
    (Experiments.Table2.test_cell our_tool Obfuscator.Technique.Enc_whitespace
    = Experiments.Table2.Full)

let test_table2_psdecode_only_ticking () =
  check_b "psdecode ticking" true
    (Experiments.Table2.test_cell Baselines.Psdecode.tool Obfuscator.Technique.Ticking
    = Experiments.Table2.Full);
  check_b "psdecode not base64" true
    (Experiments.Table2.test_cell Baselines.Psdecode.tool Obfuscator.Technique.Enc_base64
    <> Experiments.Table2.Full)

let test_table3_ours_handles_all () =
  let r = Experiments.Table3.run ~seed:77 ~count:4 ~tools:[ our_tool ] () in
  match r.Experiments.Table3.rows with
  | [ row ] -> check_i "all handled" 4 row.Experiments.Table3.handled
  | _ -> Alcotest.fail "expected one row"

let small_set = lazy (Experiments.Effectiveness.make_samples ~seed:5 ~count:12 ())

let test_fig5_ours_matches_manual () =
  let set = Lazy.force small_set in
  let r = Experiments.Effectiveness.run_fig5 ~tools:[ our_tool ] set in
  match r.Experiments.Effectiveness.rows with
  | [ row ] ->
      check_b "nearly all manual" true
        (row.Experiments.Effectiveness.same_as_manual >= 0.9)
  | _ -> Alcotest.fail "expected one row"

let test_table4_ours_fully_consistent () =
  let set = Lazy.force small_set in
  let r = Experiments.Table4.run ~tools:[ our_tool ] set in
  match r.Experiments.Table4.rows with
  | [ row ] ->
      check_i "all effective" r.Experiments.Table4.original_with_network
        row.Experiments.Table4.effective
  | _ -> Alcotest.fail "expected one row"

let test_amsi_bypass_demo () =
  let amsi_sees, we_see = Experiments.Amsi_compare.bypass_demo () in
  check_b "amsi blind to computed string" false amsi_sees;
  check_b "deobf exposes it" true we_see

let test_unknown_techniques_ours_recovers () =
  let rows = Experiments.Unknown_techniques.run ~tools:[ our_tool ] () in
  check_i "four techniques" 4 (List.length rows);
  List.iter
    (fun r ->
      match r.Experiments.Unknown_techniques.recovered_by with
      | [ (_, ok) ] ->
          check_b (r.Experiments.Unknown_techniques.technique ^ " recovered") true ok
      | _ -> Alcotest.fail "expected one tool")
    rows

let test_ablation_variant_list () =
  check_i "five variants" 5 (List.length Experiments.Ablation.variants);
  check_s "first is full" "full"
    (List.hd Experiments.Ablation.variants).Experiments.Ablation.name

(* every variant runs with the verify gate, which rolls back the rewrites
   that change a sample's network behaviour: on seed 4's first eight
   samples, no-tracing and no-multilayer lost it when run ungated *)
let test_ablation_keeps_behaviour () =
  List.iter
    (fun (r : Experiments.Ablation.row) ->
      check_i (r.variant ^ " behaviour consistent")
        r.samples_with_network r.behavior_consistent)
    (Experiments.Ablation.run ~seed:4 ~count:8 ())

(* ---------- simplify ---------- *)

let test_simplify_paren_literal () =
  check_s "string paren" "'x'" (String.trim (Deobf.Simplify.run "('x')"));
  check_s "nested stays valid" "$a = 'x'"
    (String.trim (Deobf.Simplify.run "$a = ('x')"))

let test_simplify_keeps_needed_parens () =
  (* (5).ToString() needs them; .('iex') is the canonical launcher form *)
  check_s "number member" "(5).ToString()"
    (String.trim (Deobf.Simplify.run "(5).ToString()"));
  check_s "command name parens" ".('iex') 'x'"
    (String.trim (Deobf.Simplify.run ".('iex') 'x'"))

let test_simplify_in_engine () =
  let out = Pipeline.output "$name = (-join ('dcba'[-1..-4]))" in
  check_s "reverse collapses to bare literal" "$name = 'abcd'" (String.trim out)

let suite =
  [
    ("table1 small", `Slow, test_table1_small);
    ("table2 ours concat", `Slow, test_table2_our_tool_handles_concat);
    ("table2 whitespace static limit", `Slow, test_table2_whitespace_encoding_static_limit);
    ("table2 psdecode", `Slow, test_table2_psdecode_only_ticking);
    ("table3 ours", `Slow, test_table3_ours_handles_all);
    ("fig5 ours = manual", `Slow, test_fig5_ours_matches_manual);
    ("table4 ours consistent", `Slow, test_table4_ours_fully_consistent);
    ("amsi bypass demo", `Quick, test_amsi_bypass_demo);
    ("unknown techniques", `Quick, test_unknown_techniques_ours_recovers);
    ("ablation variants", `Quick, test_ablation_variant_list);
    ("ablation keeps behaviour", `Quick, test_ablation_keeps_behaviour);
    ("simplify paren literal", `Quick, test_simplify_paren_literal);
    ("simplify keeps needed parens", `Quick, test_simplify_keeps_needed_parens);
    ("simplify in engine", `Quick, test_simplify_in_engine);
  ]
