(* One front-end pass per text: the pipeline hands each stage's tokens and
   AST to the next stage instead of lexing and parsing the same text again.
   These tests pin that the hand-off changes nothing observable — outputs,
   verdicts, sandbox runs, rollbacks, stats and edit journals match a
   reference path that passes no pre-parsed ASTs, and [Interp.run_parsed]
   behaves exactly like [Interp.run_script] — and that the per-request
   lex and parse counts stay where the hand-off put them. *)

module E = Deobf.Engine
module V = Deobf.Verify
module G = Corpus.Generator
module M = Pscommon.Telemetry.Metrics
module Chaos = Pscommon.Chaos
module Value = Psvalue.Value
module Env = Pseval.Env

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* the reference memo would let the second path skip reference runs the
   first one made; off on both sides, sandbox_runs compare run for run *)
let verify_opts = { V.default_opts with V.use_ref_cache = false }

(* the gate with no pre-parsed ASTs: it parses the input and runs both
   texts in the sandbox from source *)
let reference cache src =
  let rerun ~suppress = E.run_guarded ~cache ~suppress src in
  V.gate ~opts:verify_opts ~rerun ~src (rerun ~suppress:[])

(* what the batch core does: the engine's parses of the input and the
   output go to the gate and on to the sandbox *)
let threaded cache src =
  let rerun ~suppress = E.run_guarded ~cache ~suppress src in
  let guarded, parses = E.run_guarded_parsed ~cache src in
  V.gate ~opts:verify_opts ?src_ast:parses.E.src_ast
    ?out_ast:parses.E.out_ast ~rerun ~src guarded

let same_run name i ((g1 : E.guarded), (o1 : V.outcome))
    ((g2 : E.guarded), (o2 : V.outcome)) =
  let what field = Printf.sprintf "%s #%d: %s" name i field in
  check_s (what "output") g1.E.result.E.output g2.E.result.E.output;
  check_s (what "verdict") (V.verdict_name o1.V.verdict)
    (V.verdict_name o2.V.verdict);
  check_i (what "sandbox_runs") o1.V.sandbox_runs o2.V.sandbox_runs;
  check_b (what "suppressed") true (o1.V.suppressed = o2.V.suppressed);
  check_b (what "stats") true (g1.E.result.E.stats = g2.E.result.E.stats);
  check_b (what "edit_log") true (g1.E.edit_log = g2.E.edit_log)

let equivalence name samples () =
  (* one cache per path, shared across its samples as a batch shares it,
     so cache-hit stats line up sample for sample *)
  let ref_cache = Deobf.Recover.Cache.create () in
  let new_cache = Deobf.Recover.Cache.create () in
  List.iteri
    (fun i (s : G.sample) ->
      let src = s.G.obfuscated in
      same_run name i (reference ref_cache src) (threaded new_cache src))
    samples

(* ---------- Interp.run_parsed against Interp.run_script ---------- *)

let scripts () =
  let from samples =
    List.concat_map (fun (s : G.sample) -> [ s.G.clean; s.G.obfuscated ]) samples
  in
  from (G.generate ~seed:3 ~count:12)
  @ from (G.generate_dynamic ~seed:3 ~count:12)
  @ [ "throw 'boom'"; "$x = 1 / 0; $x"; "[int]'abc'"; "$a.Foo()";
      "while ($true) { $i++ }"; "Write-Host 'hi'; Start-Sleep 1";
      "function f { return 'x' }; f" ]
  |> List.filter (fun s -> Result.is_ok (Psparse.Parser.parse s))

(* everything the two entry points can differ in: the value or error text
   (or the exception an injected fault raised), steps, and events *)
let observe run src =
  let limits = { Env.default_limits with Env.max_steps = 20_000 } in
  let env = Env.create ~mode:Env.Sandbox ~limits () in
  let result =
    match run env src with
    | Ok vs -> "ok:" ^ String.concat "\x00" (List.map Value.to_string vs)
    | Error e -> "error:" ^ e
    | exception e -> "raised:" ^ Printexc.to_string e
  in
  (result, env.Env.steps, List.map Env.event_to_string (Env.events env))

let parsed_run env src =
  match Psparse.Parser.parse src with
  | Ok ast -> Pseval.Interp.run_parsed env ~src ast
  | Error _ -> Alcotest.fail "script does not parse"

let compare_entry_points () =
  let scripts = scripts () in
  List.iteri
    (fun i src ->
      let r1, steps1, ev1 = observe Pseval.Interp.run_script src in
      let r2, steps2, ev2 = observe parsed_run src in
      let what field = Printf.sprintf "script #%d: %s" i field in
      check_s (what "result") r1 r2;
      check_i (what "steps") steps1 steps2;
      check_b (what "events") true (ev1 = ev2))
    scripts

let run_parsed_matches_run_script () = compare_entry_points ()

let run_parsed_matches_under_chaos () =
  (* the same seeded stream per script on both sides: the probe must be
     drawn at the same point, so the same runs fault the same way *)
  let cfg =
    { Chaos.seed = 17; rate = 0.0; site_rates = [ ("interp.eval", 0.4) ] }
  in
  Chaos.set (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set None) @@ fun () ->
  let scripts = scripts () in
  let run_all run =
    List.mapi
      (fun i src ->
        Chaos.with_scope (string_of_int i) (fun () -> observe run src))
      scripts
  in
  let a = run_all Pseval.Interp.run_script in
  let b = run_all parsed_run in
  let faulted =
    List.length
      (List.filter
         (fun (r, _, _) -> String.length r > 7 && String.sub r 0 7 = "raised:")
         a)
  in
  check_b "the probe fired on some runs" true (faulted > 0);
  check_b "the probe spared some runs" true (faulted < List.length a);
  List.iteri
    (fun i ((r1, s1, e1), (r2, s2, e2)) ->
      let what field = Printf.sprintf "script #%d: %s" i field in
      check_s (what "result") r1 r2;
      check_i (what "steps") s1 s2;
      check_b (what "events") true (e1 = e2))
    (List.combine a b)

(* ---------- per-request lex and parse counts ---------- *)

let parses = M.counter "psparse.parses"
let tokenizes = M.counter "pslex.tokenizes"

(* two IEX layers around a string concatenation *)
let two_layer_sample =
  "Invoke-Expression ('Invoke-Expression (''Write-Host'' + '' hi'')')"

let counts_per_request () =
  let cache = Deobf.Recover.Cache.create () in
  let p0 = M.counter_value parses and l0 = M.counter_value tokenizes in
  let outcome, output =
    Deobf.Batch.run_source ~cache ~verify:true ~name:"two-layer"
      two_layer_sample
  in
  let p = M.counter_value parses - p0 and l = M.counter_value tokenizes - l0 in
  check_s "both layers unwrapped" "Write-Host hi\n" output;
  check_b "verified" true
    (outcome.Deobf.Batch.verdict = Some V.Equivalent);
  (* Pinned: each distinct text is lexed once and parsed once, plus the
     parses of piece texts and of the payloads the sandbox's own IEX
     evaluates.  Before stages handed their parses on, this request cost 21
     parses and 37 lexer runs.  A stage that re-parses a text it was handed
     raises these; a change that removes a parse lowers them and updates
     the pins. *)
  check_i "psparse.parses per request" 12 p;
  check_i "pslex.tokenizes per request" 15 l

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* metrics.json and the serve metrics op render the snapshot as JSON,
   /metrics as Prometheus text: both show the counters as they are *)
let counters_rendered () =
  ignore (Psparse.Parser.parse "$x = 1");
  let json = M.snapshot_to_json (M.snapshot ()) in
  check_b "psparse.parses in the JSON snapshot" true
    (contains json "\"psparse.parses\"");
  check_b "pslex.tokenizes in the JSON snapshot" true
    (contains json "\"pslex.tokenizes\"");
  let prom = Pscommon.Telemetry.render_prometheus () in
  check_b "psparse.parses on /metrics" true
    (contains prom "invoke_deobf_psparse_parses_total");
  check_b "pslex.tokenizes on /metrics" true
    (contains prom "invoke_deobf_pslex_tokenizes_total")

let suite =
  [
    Alcotest.test_case "wild samples: threaded ASTs change nothing" `Quick
      (equivalence "generate" (G.generate ~seed:41 ~count:150));
    Alcotest.test_case "hard samples: threaded ASTs change nothing" `Quick
      (equivalence "generate_hard" (G.generate_hard ~seed:41 ~count:150));
    Alcotest.test_case "multilayer samples: threaded ASTs change nothing"
      `Quick
      (equivalence "generate_multilayer"
         (G.generate_multilayer ~seed:41 ~count:150 ~min_depth:1 ~max_depth:4));
    Alcotest.test_case "dynamic samples: threaded ASTs change nothing" `Quick
      (equivalence "generate_dynamic" (G.generate_dynamic ~seed:41 ~count:150));
    Alcotest.test_case "run_parsed matches run_script" `Quick
      run_parsed_matches_run_script;
    Alcotest.test_case "run_parsed matches run_script under chaos" `Quick
      run_parsed_matches_under_chaos;
    Alcotest.test_case "lex and parse counts per request pinned" `Quick
      counts_per_request;
    Alcotest.test_case "front-end counters on every metrics surface" `Quick
      counters_rendered;
  ]
