(* The content-addressed piece cache: binding-digest keying (no aliasing
   across different traced contexts), the clear-when-full bound, the piece
   tier's answers, batch byte-identity with the cache on and off, the
   batch-scale hit rate, and the --jobs clamp. *)

module Cache = Deobf.Recover.Cache
module Value = Psvalue.Value

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "piece-cache-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let write path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let read path = In_channel.with_open_bin path In_channel.input_all

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  n = 0 || go 0

(* ---------- keying: traced bindings must not alias shared piece text ---------- *)

let test_bindings_do_not_alias () =
  (* the same piece text ($a+'bar') under different traced values of $a:
     with one cache shared across both runs, the second script must not be
     answered with the first script's result *)
  let cache = Cache.create () in
  let run src =
    (Deobf.Engine.run_guarded ~cache src).Deobf.Engine.result
      .Deobf.Engine.output
  in
  let out1 = run "$a='foo'; Write-Host ($a+'bar')" in
  let out2 = run "$a='baz'; Write-Host ($a+'bar')" in
  check_b "first binding recovered" true (contains out1 "foobar");
  check_b "second binding recovered, not aliased to the first" true
    (contains out2 "bazbar");
  check_b "no cross-contamination" false (contains out2 "foobar")

(* ---------- the bound: a full tier is cleared ---------- *)

let test_clear_when_full () =
  let c = Cache.create ~cap:8 () in
  for i = 1 to 100 do
    Cache.add c (Printf.sprintf "key-%d" i) (Ok (Value.Int i));
    check_b "occupancy within cap" true ((Cache.stats c).Cache.entries <= 8)
  done;
  (* 12 clears of 8 entries each; keys 97..100 are held *)
  let s = Cache.stats c in
  check_i "evictions counted" 96 s.Cache.evictions;
  check_i "entries held" 4 s.Cache.entries;
  check_b "newest entry readable" true
    (Cache.find c "key-100" = Some (Ok (Value.Int 100)));
  check_b "a cleared entry is gone" true (Cache.find c "key-96" = None);
  (* a key already held replaces its entry without a clear *)
  Cache.add c "key-100" (Ok (Value.Int 0));
  check_i "re-adding a held key clears nothing" 96
    (Cache.stats c).Cache.evictions

(* the reference tier holds at most 512 logs, whatever [cap] allows *)
let test_reference_tier_bound () =
  let c = Cache.create ~cap:4096 () in
  let runs = ref 0 in
  let ask i =
    Cache.reference c (Printf.sprintf "ref-%d" i) (fun () ->
        incr runs;
        Ok [ string_of_int i ])
  in
  for i = 1 to 512 do ignore (ask i) done;
  check_b "a held log is answered" true (ask 1 = Ok [ "1" ]);
  check_i "one run per log" 512 !runs;
  ignore (ask 513);
  check_b "the newest log is held" true (ask 513 = Ok [ "513" ] && !runs = 513);
  ignore (ask 1);
  check_i "a new key at 512 logs clears the tier" 514 !runs;
  (* an [Error] is never kept *)
  let fails () = Cache.reference c "failing" (fun () -> incr runs; Error "x") in
  ignore (fails ());
  ignore (fails ());
  check_i "errors run every time" 516 !runs

(* ---------- piece tier ---------- *)

let test_piece_tier_bound () =
  let c = Cache.create ~cap:8 () in
  (* a hit hands back the entry the tier holds; a miss builds a new one *)
  let seen = Hashtbl.create 16 and builds = ref 0 in
  let ask i =
    let entry = Cache.piece c (Printf.sprintf "'t' + %d" i) in
    (match Hashtbl.find_opt seen i with
    | Some held when held == entry -> ()
    | Some _ | None -> incr builds);
    Hashtbl.replace seen i entry
  in
  for i = 1 to 8 do ask i done;
  check_i "every text built once" 8 !builds;
  check_i "the tier holds cap texts" 8 (Cache.piece_count c);
  ask 1;
  ask 8;
  check_i "repeats answered from the tier" 8 !builds;
  ask 9;
  check_i "a new text at a full tier clears it" 1 (Cache.piece_count c);
  for i = 10 to 100 do ask i done;
  check_b "clears bound the tier" true (Cache.piece_count c <= 8);
  ask 2;
  check_i "a cleared text is built again" 101 !builds

let test_one_entry_answers_all () =
  let c = Cache.create () in
  let text = "(New-Object Net.WebClient).DownloadString('http://x')" in
  let e = Cache.piece c text in
  check_b "blocked" true e.Cache.blocked;
  check_b "not a literal" false e.Cache.trivial;
  check_b "parsed" true (Result.is_ok e.Cache.parsed);
  check_b "asked again: the same entry" true (Cache.piece c text == e);
  check_i "one entry for all three answers" 1 (Cache.piece_count c);
  let lit = Cache.piece c "'abc'" in
  check_b "a literal" true lit.Cache.trivial;
  check_b "not blocked" false lit.Cache.blocked;
  check_i "one entry per text" 2 (Cache.piece_count c)

let blocklist_script =
  "$u = 'http://' + 'example.com'\n\
   $c = (New-Object Net.WebClient).DownloadString($u)\n\
   Write-Host ('a' + 'b') ([char]72 + [char]105)"

let test_blocklist_off_never_blocks () =
  let run use_blocklist =
    let cache = Cache.create () in
    let options =
      { Deobf.Engine.default_options with
        recovery = { Deobf.Recover.default_options with use_blocklist } }
    in
    let stats =
      (Deobf.Engine.run_guarded ~options ~cache blocklist_script)
        .Deobf.Engine.result.Deobf.Engine.stats
    in
    (stats.Deobf.Recover.pieces_blocked, cache)
  in
  let blocked_on, _ = run true and blocked_off, off = run false in
  check_b "blocklist on: pieces blocked" true (blocked_on > 0);
  check_i "blocklist off: nothing blocked" 0 blocked_off;
  check_b "the literal test still uses the tier" true (Cache.piece_count off > 0)

let test_piece_tier_cache_off_byte_identical () =
  (* results caching off still shares the piece tier; outputs and verdicts
     must not move either way *)
  let no_cache =
    { Deobf.Engine.default_options with
      recovery = { Deobf.Recover.default_options with use_piece_cache = false } }
  in
  let c_on = Cache.create () and c_off = Cache.create () in
  let samples =
    Corpus.Generator.generate_dynamic ~seed:9 ~count:40
    @ Corpus.Generator.generate_multilayer ~seed:9 ~count:20 ~min_depth:1
        ~max_depth:3
  in
  List.iter
    (fun (s : Corpus.Generator.sample) ->
      let src = s.Corpus.Generator.obfuscated in
      let o_on, out_on =
        Deobf.Batch.run_source ~cache:c_on ~verify:true ~name:"on" src
      in
      let o_off, out_off =
        Deobf.Batch.run_source ~options:no_cache ~cache:c_off ~verify:true
          ~name:"off" src
      in
      check_s "cache on/off outputs byte-identical" out_on out_off;
      check_b "same verdict" true
        (o_on.Deobf.Batch.verdict = o_off.Deobf.Batch.verdict))
    samples;
  check_i "no results cached when off" 0 (Cache.stats c_off).Cache.entries;
  check_b "the tier served the cache-off run" true (Cache.piece_count c_off > 0)

(* The entry must answer exactly what the three separate computations it
   replaced answered: the literal test over its own parse, the blocklist's
   own lexer run, and [Interp.parse_piece].  These are those computations,
   kept here as the reference. *)
let reference_trivial text =
  let module A = Psast.Ast in
  match Psparse.Parser.parse text with
  | Ok { A.node = A.Script_block { A.sb_statements = [ stmt ]; _ }; _ } -> (
      match stmt.A.node with
      | A.Pipeline [ { A.node = A.Command_expression e; _ } ] -> (
          match e.A.node with
          | A.String_const (_, (A.Single_quoted | A.Double_quoted))
          | A.Number_const _ ->
              true
          | _ -> false)
      | _ -> false)
  | Ok _ | Error _ -> false

(* every text recovery would look up: recoverable nodes with children *)
let piece_texts src =
  match Psparse.Parser.parse src with
  | Error _ -> []
  | Ok ast ->
      Psast.Ast.fold_pre_order
        (fun acc node ->
          if Deobf.Recover.is_recoverable node && Psast.Ast.children node <> []
          then Psast.Ast.text src node :: acc
          else acc)
        [] ast

let edge_texts =
  [ (* unterminated strings: lex errors *)
    "'unterminated + 1"; "(\"open"; "@'\nno end";
    (* lexes, does not parse *)
    "('a' + ";
    (* '' escapes *)
    "'it''s' + 'x'"; "'' + ''''"; "'a''' + \"b\"";
    (* a blocked member *)
    "(New-Object Net.WebClient).DownloadString('http://x/a.ps1')";
    (* blocked names only inside string literals *)
    "'Start-Sleep' + ' 5'"; "\"Invoke-WebRequest\" -replace 'x','y'";
    (* literals, and an expression that is not one *)
    "'abc'"; "42"; "-not $true";
    (* deep nesting *)
    String.make 300 '(' ^ "'deep'" ^ String.make 300 ')' ]

let test_piece_tier_matches_references () =
  let module G = Corpus.Generator in
  let samples =
    G.generate ~seed:19 ~count:75
    @ G.generate_hard ~seed:19 ~count:75
    @ G.generate_multilayer ~seed:19 ~count:75 ~min_depth:1 ~max_depth:4
    @ G.generate_dynamic ~seed:19 ~count:75
  in
  let texts = Hashtbl.create 4096 in
  List.iter
    (fun (s : G.sample) ->
      List.iter
        (fun t -> Hashtbl.replace texts t ())
        (piece_texts s.G.obfuscated))
    samples;
  check_b "samples give many piece texts" true (Hashtbl.length texts > 1000);
  List.iter (fun t -> Hashtbl.replace texts t ()) edge_texts;
  let c = Cache.create ~cap:100_000 () in
  let parse_errors = ref 0 and blocked = ref 0 and trivial = ref 0 in
  Hashtbl.iter
    (fun text () ->
      let e = Cache.piece c text in
      let what field = Printf.sprintf "%S: %s" text field in
      check_b (what "trivial") (reference_trivial text) e.Cache.trivial;
      check_b (what "blocked")
        (Deobf.Blocklist.mentions_blocked_command text)
        e.Cache.blocked;
      (match (Pseval.Interp.parse_piece text, e.Cache.parsed) with
      | Ok a, Ok b -> check_b (what "same AST") true (a = b)
      | Error a, Error b ->
          incr parse_errors;
          check_s (what "same error text") a b
      | Ok _, Error _ | Error _, Ok _ -> Alcotest.fail (what "parse outcome"));
      if e.Cache.blocked then incr blocked;
      if e.Cache.trivial then incr trivial)
    texts;
  (* the edge texts cover each kind of answer *)
  check_b "some parse errors" true (!parse_errors >= 4);
  check_b "some blocked" true (!blocked >= 2);
  check_b "some literals" true (!trivial >= 2)

(* ---------- batch-scale byte-identity and the jobs clamp ---------- *)

let sample_files dir =
  let in_dir = Filename.concat dir "in" in
  Sys.mkdir in_dir 0o755;
  Corpus.Generator.generate ~seed:11 ~count:16
  |> List.map (fun (s : Corpus.Generator.sample) ->
         let path =
           Filename.concat in_dir (Printf.sprintf "sample_%04d.ps1" s.id)
         in
         write path s.obfuscated;
         path)

let outputs_of out files =
  List.map (fun f -> read (Filename.concat out (Filename.basename f))) files

let test_batch_cache_off_byte_identical () =
  with_temp_dir (fun dir ->
      let files = sample_files dir in
      let no_cache_options =
        { Deobf.Engine.default_options with
          recovery =
            { Deobf.Recover.default_options with use_piece_cache = false } }
      in
      let out_on = Filename.concat dir "out-on" in
      let out_off = Filename.concat dir "out-off" in
      let s_on =
        Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir:out_on ~verify:false
          files
      in
      let s_off =
        Deobf.Batch.run_files ~options:no_cache_options ~timeout_s:20.0
          ~out_dir:out_off ~verify:false files
      in
      check_i "all processed with cache" 16 s_on.Deobf.Batch.total;
      check_i "all processed without cache" 16 s_off.Deobf.Batch.total;
      List.iter2
        (check_s "cache on/off outputs byte-identical")
        (outputs_of out_on files) (outputs_of out_off files))

(* batch-scale hit rate: the lookups one run's shared cache answers
   across files, pinned exactly — any change to which pieces are looked
   up, or to what a later file can reuse, moves one of the two counts *)
let test_batch_scale_hit_rate () =
  with_temp_dir (fun dir ->
      let in_dir = Filename.concat dir "in" in
      Sys.mkdir in_dir 0o755;
      let files =
        Corpus.Generator.generate ~seed:42 ~count:64
        |> List.map (fun (s : Corpus.Generator.sample) ->
               let path =
                 Filename.concat in_dir (Printf.sprintf "sample_%04d.ps1" s.id)
               in
               write path s.obfuscated;
               path)
      in
      let s =
        Deobf.Batch.run_files ~timeout_s:20.0
          ~out_dir:(Filename.concat dir "out") ~verify:false files
      in
      let cs = Option.get s.Deobf.Batch.cache_stats in
      check_i "hits" 183 cs.Cache.hits;
      check_i "lookups" 467 cs.Cache.lookups)

let test_jobs_clamped_and_reported () =
  with_temp_dir (fun dir ->
      let input = Filename.concat dir "one.ps1" in
      write input "Write-Host ('o'+'k')";
      let s =
        Deobf.Batch.run_files ~jobs:4096 ~verify:false [ input ]
      in
      check_i "requested level recorded" 4096 s.Deobf.Batch.jobs_requested;
      check_b "effective level clamped to cores" true
        (s.Deobf.Batch.jobs_effective
         <= Pscommon.Pool.recommended_jobs ());
      check_b "effective level at least one" true
        (s.Deobf.Batch.jobs_effective >= 1);
      check_b "summary json carries both" true
        (let j = Deobf.Batch.summary_to_json s in
         contains j "\"jobs_requested\": 4096"
         && contains j "\"jobs_effective\": "))

let suite =
  [
    Alcotest.test_case "traced bindings do not alias shared piece text" `Quick
      test_bindings_do_not_alias;
    Alcotest.test_case "clear-when-full bounds occupancy" `Quick
      test_clear_when_full;
    Alcotest.test_case "reference tier: at most 512 logs" `Quick
      test_reference_tier_bound;
    Alcotest.test_case "piece tier: clears bound it" `Quick
      test_piece_tier_bound;
    Alcotest.test_case "piece tier: one entry answers all three" `Quick
      test_one_entry_answers_all;
    Alcotest.test_case "piece tier: blocklist off blocks nothing" `Quick
      test_blocklist_off_never_blocks;
    Alcotest.test_case "piece tier: cache on/off byte-identical" `Quick
      test_piece_tier_cache_off_byte_identical;
    Alcotest.test_case "piece tier: answers match the references" `Quick
      test_piece_tier_matches_references;
    Alcotest.test_case "batch cache on/off byte-identical" `Slow
      test_batch_cache_off_byte_identical;
    Alcotest.test_case "batch-scale hit rate pinned in one run" `Slow
      test_batch_scale_hit_rate;
    Alcotest.test_case "jobs clamped to cores and reported" `Quick
      test_jobs_clamped_and_reported;
  ]
