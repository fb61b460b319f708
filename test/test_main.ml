let () =
  Alcotest.run "invoke-deobfuscation"
    [
      ("pscommon", Test_pscommon.suite);
      ("encoding", Test_encoding.suite);
      ("regexen", Test_regexen.suite);
      ("pslex", Test_pslex.suite);
      ("psast", Test_psast.suite);
      ("psparse", Test_psparse.suite);
      ("psvalue", Test_psvalue.suite);
      ("pseval", Test_pseval.suite);
      ("guard", Test_guard.suite);
      ("resilience", Test_resilience.suite);
      ("telemetry", Test_telemetry.suite);
      ("obsplane", Test_obsplane.suite);
      ("parallel", Test_parallel.suite);
      ("piece-cache", Test_piece_cache.suite);
      ("frontend", Test_frontend.suite);
      ("ops", Test_ops.suite);
      ("obfuscator", Test_obfuscator.suite);
      ("deobf", Test_deobf.suite);
      ("verify", Test_verify.suite);
      ("provenance", Test_provenance.suite);
      ("serve", Test_serve.suite);
      ("selfheal", Test_selfheal.suite);
      ("baselines", Test_baselines.suite);
      ("corpus", Test_corpus.suite);
      ("experiments", Test_experiments.suite);
      ("paper-listings", Test_paper_listings.suite);
      ("regressions", Test_regressions.suite);
    ]
