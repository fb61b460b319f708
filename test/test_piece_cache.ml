(* The content-addressed piece cache: binding-digest keying (no aliasing
   across different traced contexts), two-generation eviction, persistent
   tier round-trips and corruption tolerance, batch byte-identity with the
   cache on/off/persistent, and the --jobs clamp. *)

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

(* ---------- two-generation eviction ---------- *)

let test_two_generation_eviction () =
  let c = Cache.create ~cap:8 () in
  for i = 1 to 100 do
    Cache.add c (Printf.sprintf "key-%d" i) (Ok (Value.Int i))
  done;
  let s = Cache.stats c in
  check_b "occupancy stays bounded" true (Cache.length c <= 8 + 4);
  check_b "flips evicted old generations" true (s.Cache.evictions > 0);
  (* the most recent insert survives in the hot generation *)
  check_b "most recent entry survives" true
    (Cache.find c "key-100" = Some (Ok (Value.Int 100)))

let test_cold_hit_promotes () =
  let c = Cache.create ~cap:4 () in
  (* gen_cap = 2: fill hot, flip it cold, then hit the cold entry — it must
     be promoted back into the hot generation and survive the next flip *)
  Cache.add c "a" (Ok (Value.Int 1));
  Cache.add c "b" (Ok (Value.Int 2));
  Cache.add c "c" (Ok (Value.Int 3));  (* flip: a,b cold *)
  check_b "cold entry still readable" true
    (Cache.find c "a" = Some (Ok (Value.Int 1)));
  Cache.add c "d" (Ok (Value.Int 4));  (* flip: c,(a) … a was promoted *)
  Cache.add c "e" (Ok (Value.Int 5));
  check_b "promoted entry survives the next flip" true
    (Cache.find c "a" = Some (Ok (Value.Int 1)))

(* ---------- per-text fact tier ---------- *)

(* a compute function that counts how often the tier had to ask it *)
let counting () =
  let calls = ref 0 in
  (calls, fun text -> incr calls; String.length text mod 2 = 0)

let test_fact_tier_generations_and_shrink () =
  let c = Cache.create ~cap:8 () in
  let calls, compute = counting () in
  let ask i = ignore (Cache.fact c Cache.Trivial (Printf.sprintf "t%d" i) compute) in
  for i = 1 to 6 do ask i done;
  (* gen_cap = 4: t1..t4 flipped cold when t5 arrived *)
  check_i "every text computed once" 6 !calls;
  check_i "both generations held" 6 (Cache.fact_count c Cache.Trivial);
  ask 1;
  ask 6;
  check_i "repeats answered from the tier" 6 !calls;
  for i = 7 to 100 do ask i done;
  check_b "flips bound the tier" true (Cache.fact_count c Cache.Trivial <= 8);
  ask 2;
  check_i "an evicted text is computed again" 101 !calls;
  Cache.shrink c;
  check_b "shrink drops the cold generation" true
    (Cache.fact_count c Cache.Trivial <= 4);
  ask 100;
  check_i "the hot generation survives shrink" 101 !calls

let test_fact_kinds_are_separate () =
  let c = Cache.create () in
  let calls, compute = counting () in
  ignore (Cache.fact c Cache.Trivial "piece" compute);
  ignore (Cache.fact c Cache.Blocked "piece" compute);
  check_i "one text, two facts, two computations" 2 !calls;
  check_i "trivial held" 1 (Cache.fact_count c Cache.Trivial);
  check_i "blocked held" 1 (Cache.fact_count c Cache.Blocked)

let blocklist_script =
  "$u = 'http://' + 'example.com'\n\
   $c = (New-Object Net.WebClient).DownloadString($u)\n\
   Write-Host ('a' + 'b') ([char]72 + [char]105)"

let test_blocklist_off_never_consults_tier () =
  let run use_blocklist =
    let cache = Cache.create () in
    let options =
      { Deobf.Engine.default_options with
        recovery = { Deobf.Recover.default_options with use_blocklist } }
    in
    ignore (Deobf.Engine.run_guarded ~options ~cache blocklist_script);
    cache
  in
  let on = run true and off = run false in
  check_b "blocklist on: answers held" true
    (Cache.fact_count on Cache.Blocked > 0);
  check_i "blocklist off: never asked" 0 (Cache.fact_count off Cache.Blocked);
  check_b "the literal test still uses the tier" true
    (Cache.fact_count off Cache.Trivial > 0)

let test_fact_tier_cache_off_byte_identical () =
  (* results caching off still shares the per-text tier (like the program
     tier); outputs and verdicts must not move either way *)
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
  check_b "the tier served the cache-off run" true
    (Cache.fact_count c_off Cache.Trivial > 0)

(* ---------- persistent tier ---------- *)

let test_persistent_round_trip () =
  with_temp_dir (fun dir ->
      let c1 = Cache.create ~dir ~fingerprint:"fp-1" () in
      Cache.add c1 "k" (Ok (Value.Str "payload"));
      Cache.add c1 "err" (Error "syntax error at 0: nope");
      (* a fresh cache over the same directory and fingerprint starts warm *)
      let c2 = Cache.create ~dir ~fingerprint:"fp-1" () in
      check_b "value round-trips through disk" true
        (Cache.find c2 "k" = Some (Ok (Value.Str "payload")));
      check_b "cached failure round-trips too" true
        (Cache.find c2 "err" = Some (Error "syntax error at 0: nope"));
      let s = Cache.stats c2 in
      check_i "both hits came from the persistent tier" 2
        s.Cache.persistent_loads;
      (* a second lookup is served from memory, not re-read *)
      ignore (Cache.find c2 "k");
      check_i "promoted into the in-memory tier" 2
        (Cache.stats c2).Cache.persistent_loads;
      (* a different fingerprint must not see the entries *)
      let c3 = Cache.create ~dir ~fingerprint:"fp-2" () in
      check_b "foreign fingerprint misses" true (Cache.find c3 "k" = None))

let test_persistent_corruption_is_a_miss () =
  with_temp_dir (fun dir ->
      let c1 = Cache.create ~dir ~fingerprint:"fp" () in
      Cache.add c1 "k1" (Ok (Value.Str "one"));
      Cache.add c1 "k2" (Ok (Value.Str "two"));
      Cache.add c1 "k3" (Ok (Value.Str "three"));
      let entries =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".piece")
        |> List.sort String.compare
      in
      check_i "one file per entry" 3 (List.length entries);
      (* sabotage every failure mode: truncation (torn write), bit flips,
         garbage, and an empty file *)
      (match entries with
      | [ a; b; c ] ->
          let pa = Filename.concat dir a
          and pb = Filename.concat dir b
          and pc = Filename.concat dir c in
          let whole = read pa in
          write pa (String.sub whole 0 (String.length whole / 2));
          write pb "complete garbage, not even the magic";
          write pc ""
      | _ -> Alcotest.fail "expected three entries");
      let c2 = Cache.create ~dir ~fingerprint:"fp" () in
      check_b "truncated entry is a miss, not a crash" true
        (Cache.find c2 "k1" = None);
      check_b "garbage entry is a miss" true (Cache.find c2 "k2" = None);
      check_b "empty entry is a miss" true (Cache.find c2 "k3" = None);
      (* and a miss is recoverable: re-adding overwrites the corpse *)
      Cache.add c2 "k1" (Ok (Value.Str "one"));
      let c3 = Cache.create ~dir ~fingerprint:"fp" () in
      check_b "re-added entry persists again" true
        (Cache.find c3 "k1" = Some (Ok (Value.Str "one"))))

let test_unwritable_dir_degrades_to_memory () =
  (* a directory that does not exist: persistence silently off, the
     in-memory tiers still work *)
  let c = Cache.create ~dir:"/nonexistent/piece/cache" () in
  Cache.add c "k" (Ok Value.Null);
  check_b "memory tier unaffected" true (Cache.find c "k" = Some (Ok Value.Null))

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

let test_batch_persistent_warm_run_identical () =
  with_temp_dir (fun dir ->
      let files = sample_files dir in
      let cache_dir = Filename.concat dir "piece-cache" in
      let out_cold = Filename.concat dir "out-cold" in
      let out_warm = Filename.concat dir "out-warm" in
      let cold =
        Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir:out_cold ~verify:false
          ~piece_cache_dir:cache_dir files
      in
      check_b "cold run persisted entries" true
        (Sys.readdir cache_dir
        |> Array.exists (fun n -> Filename.check_suffix n ".piece"));
      (* corrupt one entry on disk before the warm run: it must cost a
         re-computation, never an output difference or a crash *)
      (match
         Sys.readdir cache_dir |> Array.to_list
         |> List.filter (fun n -> Filename.check_suffix n ".piece")
       with
      | first :: _ -> write (Filename.concat cache_dir first) "torn"
      | [] -> ());
      let warm =
        Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir:out_warm ~verify:false
          ~piece_cache_dir:cache_dir files
      in
      List.iter2
        (check_s "cold/warm outputs byte-identical")
        (outputs_of out_cold files) (outputs_of out_warm files);
      let loads =
        match warm.Deobf.Batch.cache_stats with
        | Some s -> s.Cache.persistent_loads
        | None -> 0
      in
      check_b "warm run answered lookups from disk" true (loads > 0);
      ignore cold)

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
    Alcotest.test_case "two-generation eviction bounds occupancy" `Quick
      test_two_generation_eviction;
    Alcotest.test_case "cold hits promote to the hot generation" `Quick
      test_cold_hit_promotes;
    Alcotest.test_case "fact tier: generations and shrink bound it" `Quick
      test_fact_tier_generations_and_shrink;
    Alcotest.test_case "fact tier: facts are kept apart" `Quick
      test_fact_kinds_are_separate;
    Alcotest.test_case "fact tier: blocklist off never asks it" `Quick
      test_blocklist_off_never_consults_tier;
    Alcotest.test_case "fact tier: cache on/off byte-identical" `Quick
      test_fact_tier_cache_off_byte_identical;
    Alcotest.test_case "persistent tier round-trips" `Quick
      test_persistent_round_trip;
    Alcotest.test_case "persistent corruption is a miss, never a crash" `Quick
      test_persistent_corruption_is_a_miss;
    Alcotest.test_case "unusable cache dir degrades to memory" `Quick
      test_unwritable_dir_degrades_to_memory;
    Alcotest.test_case "batch cache on/off byte-identical" `Slow
      test_batch_cache_off_byte_identical;
    Alcotest.test_case "batch persistent warm run byte-identical" `Slow
      test_batch_persistent_warm_run_identical;
    Alcotest.test_case "jobs clamped to cores and reported" `Quick
      test_jobs_clamped_and_reported;
  ]
