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

(* the gate with no pre-parsed ASTs: it parses the input and runs both
   texts in the sandbox from source.  Neither path hands the gate a cache,
   so it keeps no reference memo and sandbox_runs compare run for run. *)
let reference cache src =
  let rerun ~suppress = E.run_guarded ~cache ~suppress src in
  V.gate ~rerun ~src (rerun ~suppress:[])

(* what the batch core does: the engine's parses of the input and the
   output go to the gate and on to the sandbox *)
let threaded cache src =
  let rerun ~suppress = E.run_guarded ~cache ~suppress src in
  let guarded, parses = E.run_guarded_parsed ~cache src in
  V.gate ?src_ast:parses.E.src_ast ?out_ast:parses.E.out_ast ~rerun ~src
    guarded

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
  let reference_cache = Deobf.Recover.Cache.create () in
  let new_cache = Deobf.Recover.Cache.create () in
  List.iteri
    (fun i (s : G.sample) ->
      let src = s.G.obfuscated in
      same_run name i (reference reference_cache src) (threaded new_cache src))
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
  | Ok ast -> Pseval.Interp.run_parsed env ~src (Ok ast)
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

(* one request on a fresh cache: its output, verdict, parses and lexer
   runs *)
let count_request name src =
  let cache = Deobf.Recover.Cache.create () in
  let p0 = M.counter_value parses and l0 = M.counter_value tokenizes in
  let outcome, output = Deobf.Batch.run_source ~cache ~verify:true ~name src in
  ( output,
    outcome.Deobf.Batch.verdict,
    M.counter_value parses - p0,
    M.counter_value tokenizes - l0 )

let counts_per_request () =
  let output, verdict, p, l = count_request "two-layer" two_layer_sample in
  check_s "both layers unwrapped" "Write-Host hi\n" output;
  check_b "verified" true (verdict = Some V.Equivalent);
  (* Pinned: each distinct text is lexed once and parsed once, plus the
     parses of piece texts and of the payloads the sandbox's own IEX
     evaluates.  Before stages handed their parses on, this request cost 21
     parses and 37 lexer runs; before one piece-tier entry answered the
     literal test, the blocklist and the parse of a piece, 12 and 15.  A
     stage that re-parses a text it was handed raises these; a change that
     removes a parse lowers them and updates the pins. *)
  check_i "psparse.parses per request" 11 p;
  check_i "pslex.tokenizes per request" 11 l

(* several distinct pieces, none of them a payload: each piece text costs
   one lexer run and one parse, so a piece lexed again for the blocklist
   or parsed again for the literal test raises these *)
let distinct_pieces_sample =
  "$a = ('he' + 'llo')\n\
   $b = [char]72 + [char]105\n\
   Write-Output ($a + $b) ('x' + 'y') ([string]::Join('', 'o', 'k'))"

let counts_with_distinct_pieces () =
  let output, verdict, p, l =
    count_request "distinct-pieces" distinct_pieces_sample
  in
  check_b "pieces recovered" true
    (String.length output < String.length distinct_pieces_sample);
  check_b "verified" true (verdict = Some V.Equivalent);
  check_i "psparse.parses per request" 13 p;
  check_i "pslex.tokenizes per request" 13 l

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
  let prom = M.to_prometheus (M.snapshot ()) in
  check_b "psparse.parses on /metrics" true
    (contains prom "invoke_deobf_psparse_parses_total");
  check_b "pslex.tokenizes on /metrics" true
    (contains prom "invoke_deobf_pslex_tokenizes_total")

(* ---------- front-end golden digest ---------- *)

(* Every token, AST, extent, error message and error position the lexer and
   parser produce on a fixed corpus, folded into one digest.  A rewrite of
   the front end that changes any of them fails here, whatever the rest of
   the pipeline makes of the change. *)

let nest depth opener closer inner =
  String.concat "" (List.init depth (fun _ -> opener))
  ^ inner
  ^ String.concat "" (List.init depth (fun _ -> closer))

let edge_texts =
  [
    (* unterminated strings *)
    "'abc"; "$a = 'abc"; "'ab''"; "1 + '"; "\"abc"; "$a = \"a`\"b";
    "\"tick at end`"; "@'\nbody\n"; "@\"\nbody $x\n"; "@'no newline";
    "@\"\n$x\n\"@"; "@'\r\nline\r\n'@"; "@'\nline1\nline2\n'@ + 'x'";
    (* '' and "" escapes *)
    "'it''s' + '''' + ''"; "\"say \"\"hi\"\"\" + \"\"\"\" + \"\"";
    (* backtick escapes inside and outside strings *)
    "\"a`tb`n`r`0`a`b`f`v`$x`\"\""; "wr`ite-h`ost h`ello we`bclient";
    "iN`v`oKe-eXpReSsIoN ('a'+'b')"; "$x = \"$env:temp\\`$y ${a b} $($x + 1)\"";
    "cmd a`\nb"; "\"$(\"nested $(1 + (2))\")\"";
    (* CRLF *)
    "$a = 1\r\n$b = 2\r\nWrite-Output ($a + $b)\r\n"; "'x'\r"; "1 `\r\n+ 2";
    "1 `\r+ 2";
    (* comments *)
    "<# block\n comment #> 1"; "1 # rest\n2"; "<# unterminated"; "echo a#b #c";
    "$x = 1 <# inline #> + 2"; "#";
    (* line continuations *)
    "1 `\n+ 2"; "write-host `\n  a `\n  b";
    (* variables *)
    "${a b} = 1; ${a b}"; "$env:comspec; $env:x + $global:y + $script:z";
    "f @splat; @args"; "$$; $?; $^; $_"; "${unterminated"; "$ x"; "$(";
    (* numbers *)
    "4kb + 2MB + 1gb + 3Tb + 5pb"; "10l + 3d + 7L + 9D"; "0x1F + 0XfF + 0x";
    "1e5 + 2.5E-3 + 1.5e+2 + 3e"; ".5 + 3. + 1.2.3"; "-5; cmd -5 -x 2kb 0x10";
    "1..5; -1..-5; 'x'[-1..-3]"; "12abc"; "[int]'0x10' + 1kbx";
    (* redirections *)
    "cmd > out.txt"; "cmd >> out.txt"; "cmd 2> err.txt"; "cmd 2>> err";
    "cmd 1> a"; "cmd 1>> a"; "cmd 2>&1"; "cmd 1>&2"; "cmd < in";
    "cmd a 2>&1 | out-null"; "$x > 'f'"; "1>a";
    (* operators *)
    "$x += 1; $x -= 1; $x *= 2; $x /= 2; $x %= 3; $x++; $x--; ++$x; --$x";
    "$a -and $b -or !$c -xor $d -and -not $e";
    "'a' -CEQ 'A' -iLike 'a*' -NotMatch 'x' -cReplace 'a','b' -Split ','";
    "'{0}{1}' -f 'a','b' -join '' -bxor 3 -shl 1 -shr 1 -band 1 -bor 2";
    "$a -is [int] -isnot [string] -as [char] -in 1,2 -notin 3 -contains 4";
    "cmd -join -Name:value -f; -foo"; "$x = -foo"; "1 -bnot 2; -bnot 3";
    "a && b || c"; "$a::b; [Convert]::FromBase64String('x'); [x]:: y";
    "$a. Length; $a.b.c(1, 2); $a.'x'; $a.$b; {1}.Invoke()";
    ". ./x.ps1; . $x; & 'iex' 'a'; & ($x) b; %{ $_ } ; 1 | % { $_ }";
    "$h = @{a=1;b=2; 'c' = 3}; $h.a"; "@(1,2)[0]; $(1;2); ,1"; "[char[]] 'ab'";
    "[string][char]39; [System.Text.Encoding]::UTF8; [a[b]]; [ ]"; "$a[0][1]";
    (* statements *)
    "if ($a) { 1 } elseif ($b) { 2 } else { 3 }";
    "while ($i -lt 3) { $i++ }; do { 1 } while ($false); do { } until (1)";
    "for ($i = 0; $i -lt 3; $i++) { $i }; foreach ($x in 1..3) { $x }";
    "switch -regex ($x) { 'a' { 1 } default { 2 } }";
    "function f($a, $b) { param($c) return $a }; filter g { $_ }";
    "try { 1 } catch [System.Exception], [x] { 2 } finally { 3 }";
    "trap [x] { continue }; begin { } process { } end { }; exit 1; throw 'x'";
    "break; continue; return";
    (* parse errors *)
    "(1"; "1 +"; "}"; ")"; "$"; "@"; "`"; "if ($a) 1"; "try { 1 }";
    "$a = "; "f(1 2"; "do { } x"; "$a.(1)"; "[int]"; "@{a}"; "1 2";
    "function"; "foreach ($x 1) { }"; "\"$(1\""; "$a[1";
    (* 300-deep nesting *)
    nest 300 "(" ")" "1"; nest 300 "{" "}" ""; nest 300 "$(" ")" "1";
    nest 300 "@(" ")" "1"; nest 300 "$a[" "]" "0"; nest 300 "[" "]" "";
    nest 300 "(" "" "1";
  ]

let corpus_texts =
  lazy
    (let samples =
       G.generate ~seed:13 ~count:100
       @ G.generate_hard ~seed:13 ~count:100
       @ G.generate_multilayer ~seed:13 ~count:100 ~min_depth:1 ~max_depth:4
       @ G.generate_dynamic ~seed:13 ~count:100
     in
     let cache = Deobf.Recover.Cache.create () in
     List.concat_map
       (fun (s : G.sample) ->
         let _, output =
           Deobf.Batch.run_source ~cache ~verify:true ~name:"frontend"
             s.G.obfuscated
         in
         [ s.G.obfuscated; s.G.clean; output ])
       samples)

let add_frontend_digest buf src =
  (match Pslex.Lexer.tokenize src with
  | Error e ->
      Printf.bprintf buf "lex error %S at %d\n" e.Pslex.Lexer.message
        e.Pslex.Lexer.position
  | Ok toks ->
      List.iter
        (fun (t : Pslex.Token.t) ->
          Printf.bprintf buf "%s\000%s\000%s\000%d\000%d\001"
            (Pslex.Token.kind_name t.kind) t.content t.text
            t.extent.Pscommon.Extent.start t.extent.Pscommon.Extent.stop)
        toks);
  (match Psparse.Parser.parse src with
  | Error e ->
      Printf.bprintf buf "parse error %S at %d\n" e.Psparse.Parser.message
        e.Psparse.Parser.position
  | Ok ast ->
      Buffer.add_string buf (Marshal.to_string ast [ Marshal.No_sharing ]));
  Buffer.add_char buf '\002'

(* computed before the allocation-free lexer and flat-precedence parser
   replaced the ones it pins *)
let frontend_digest = "d95df66d7a6dfd2f52ce9f9fcaa1cf32"

let test_frontend_digest () =
  let texts = Lazy.force corpus_texts @ edge_texts in
  check_i "texts" (1200 + List.length edge_texts) (List.length texts);
  let buf = Buffer.create (1 lsl 22) in
  List.iter (add_frontend_digest buf) texts;
  check_s "front-end digest" frontend_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---------- allocation ceiling ---------- *)

(* Minor words allocated per token by the lexer and by the parser over the
   digest's corpus texts.  The count is deterministic for a given build, so
   an allocation regression in either fails here without a timing run.  The
   ceilings are the measured values plus 10%.  The lexer that allocated an
   option per character read took 38.84 words per token on these texts, and
   the parser with a closure per precedence level 47.76. *)
let lex_words_ceiling = 18.72 *. 1.1
let parse_words_ceiling = 17.07 *. 1.1

let test_allocation_ceiling () =
  let lexed =
    List.filter_map
      (fun src ->
        match Pslex.Lexer.tokenize src with
        | Ok toks -> Some (src, toks)
        | Error _ -> None)
      (Lazy.force corpus_texts)
  in
  let tokens =
    float_of_int
      (List.fold_left (fun n (_, toks) -> n + List.length toks) 0 lexed)
  in
  let words f =
    let w0 = Gc.minor_words () in
    List.iter f lexed;
    Gc.minor_words () -. w0
  in
  let lex =
    words (fun (src, _) -> ignore (Sys.opaque_identity (Pslex.Lexer.tokenize src)))
    /. tokens
  in
  let parse =
    words (fun (src, toks) ->
        ignore (Sys.opaque_identity (Psparse.Parser.parse_tokens src toks)))
    /. tokens
  in
  check_b
    (Printf.sprintf "lexer %.2f words per token <= %.2f" lex lex_words_ceiling)
    true (lex <= lex_words_ceiling);
  check_b
    (Printf.sprintf "parser %.2f words per token <= %.2f" parse parse_words_ceiling)
    true (parse <= parse_words_ceiling)

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
    Alcotest.test_case "counts pinned on a request of distinct pieces" `Quick
      counts_with_distinct_pieces;
    Alcotest.test_case "front-end counters on every metrics surface" `Quick
      counters_rendered;
    Alcotest.test_case "front-end golden digest" `Quick test_frontend_digest;
    Alcotest.test_case "front-end allocation ceiling" `Quick
      test_allocation_ceiling;
  ]
