(* Domain-pool parallelism: deterministic ordering, cross-domain deadline
   isolation, piece-cache correctness, and batch output identity. *)

module Guard = Pscommon.Guard
module Pool = Pscommon.Pool

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* ---------- Pool.map ---------- *)

let test_pool_map_matches_sequential () =
  let items = List.init 100 (fun i -> i) in
  let f x = (x * 31) mod 97 in
  check_b "jobs=4 equals sequential map" true
    (List.map f items = Pool.map ~jobs:4 f items);
  check_b "jobs larger than item count" true
    (List.map f [ 1; 2; 3 ] = Pool.map ~jobs:16 f [ 1; 2; 3 ]);
  check_b "empty input" true (Pool.map ~jobs:4 f [] = []);
  check_b "default is sequential" true (List.map f items = Pool.map f items)

exception Boom of int

let test_pool_map_propagates_exception () =
  let raised =
    try
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i mod 7 = 3 then raise (Boom i) else i)
           (List.init 50 (fun i -> i)));
      None
    with Boom i -> Some i
  in
  (* the lowest-index failure wins, deterministically *)
  check_b "exception escapes the pool" true (raised = Some 3)

(* ---------- deadline isolation across domains ---------- *)

let test_deadlines_stay_domain_local () =
  (* four workers install very different deadlines at the same time; each
     must observe only its own, and leave its domain's stack clean *)
  let budgets = [ 0.05; 1000.0; 0.05; 1000.0; 1000.0; 0.05; 1000.0; 0.05 ] in
  let observations =
    Pool.map ~jobs:4
      (fun budget ->
        let before = Guard.ambient_deadline () in
        let inside = ref Guard.no_deadline in
        let r =
          Guard.protect ~deadline:(Guard.deadline_after budget) (fun () ->
              inside := Guard.ambient_deadline ();
              Guard.remaining_s (Guard.ambient_deadline ()))
        in
        let after = Guard.ambient_deadline () in
        (before, !inside, r, after))
      budgets
  in
  List.iter2
    (fun budget (before, inside, r, after) ->
      check_b "no ambient deadline before the guard" true
        (before = Guard.no_deadline);
      check_b "guard restores the ambient stack" true
        (after = Guard.no_deadline);
      match r with
      | Ok remaining ->
          (* a worker that saw a sibling's 0.05 s deadline instead of its
             own 1000 s one would report a tiny remaining budget *)
          check_b "worker saw its own deadline" true (remaining <= budget);
          check_b "worker saw a real deadline" true
            (inside <> Guard.no_deadline)
      | Error _ -> Alcotest.fail "guarded observation failed")
    budgets observations

let test_parallel_guarded_runs_mixed_deadlines () =
  (* a hanging sample under a tight deadline next to clean samples under
     loose ones: only the bomb times out, in every domain interleaving.  Its
     padding leaves the bomb to the wall clock *)
  let bomb = Test_guard.decode_bomb ~timeout_s:0.3 in
  let clean = "Write-Host 'hello'" in
  let inputs =
    [ (clean, 30.0); (bomb, 0.3); (clean, 30.0); (bomb, 0.3);
      (clean, 30.0); (clean, 30.0) ]
  in
  let results =
    Pool.map ~jobs:4
      (fun (src, timeout_s) ->
        Deobf.Engine.run_guarded ~timeout_s src)
      inputs
  in
  List.iter2
    (fun (src, _) (g : Deobf.Engine.guarded) ->
      let timed_out =
        List.exists
          (fun (s : Deobf.Engine.failure_site) -> s.failure = Guard.Timeout)
          g.Deobf.Engine.failures
      in
      if src == bomb then
        check_b "bomb contained by its own deadline" true timed_out
      else begin
        check_b "clean sample untouched by sibling deadlines" false timed_out;
        check_b "clean sample recovered" true
          (String.length g.Deobf.Engine.result.Deobf.Engine.output > 0)
      end)
    inputs results

(* ---------- piece cache ---------- *)

let test_cache_hit_matches_miss () =
  let src = "Write-Host ('f'+'oo') ('f'+'oo')" in
  let with_cache, out_with = Pipeline.run src in
  check_s "recovered with cache" "Write-Host ('foo') ('foo')\n" out_with;
  check_b "repeated piece hit the cache" true
    (with_cache.Deobf.Batch.stats.Deobf.Recover.cache_hits >= 1);
  let options =
    { Deobf.Engine.default_options with
      recovery =
        { Deobf.Engine.default_options.Deobf.Engine.recovery with
          use_piece_cache = false } }
  in
  let without, out_without = Pipeline.run ~options src in
  check_i "ablation disables the cache" 0
    without.Deobf.Batch.stats.Deobf.Recover.cache_hits;
  check_s "cache does not change the output" out_with out_without

(* ---------- batch determinism and output directories ---------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "parallel-batch-%d" (Unix.getpid ()))
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

let test_batch_jobs4_byte_identical () =
  with_temp_dir (fun dir ->
      let in_dir = Filename.concat dir "in" in
      Sys.mkdir in_dir 0o755;
      let samples = Corpus.Generator.generate ~seed:7 ~count:32 in
      let files =
        List.map
          (fun (s : Corpus.Generator.sample) ->
            let path =
              Filename.concat in_dir (Printf.sprintf "sample_%04d.ps1" s.id)
            in
            write path s.obfuscated;
            path)
          samples
      in
      let out1 = Filename.concat dir "out1" in
      let out4 = Filename.concat dir "out4" in
      let s1 = Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir:out1 ~jobs:1 files in
      let s4 = Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir:out4 ~jobs:4 files in
      check_i "all samples processed at jobs=1" 32 s1.Deobf.Batch.total;
      check_i "all samples processed at jobs=4" 32 s4.Deobf.Batch.total;
      (* outcomes come back input-ordered regardless of domain scheduling *)
      List.iter2
        (fun file (o : Deobf.Batch.outcome) ->
          check_s "outcome order matches input order" file o.Deobf.Batch.file)
        files s4.Deobf.Batch.outcomes;
      List.iter
        (fun file ->
          let base = Filename.basename file in
          check_s
            (Printf.sprintf "%s identical across jobs" base)
            (read (Filename.concat out1 base))
            (read (Filename.concat out4 base)))
        files)

let test_ensure_dir_nested () =
  with_temp_dir (fun dir ->
      let input = Filename.concat dir "one.ps1" in
      write input "Write-Host ('o'+'k')";
      let out_dir = Filename.concat (Filename.concat dir "a") "b/c" in
      let summary = Deobf.Batch.run_files ~out_dir [ input ] in
      check_i "nested out_dir accepted" 1 summary.Deobf.Batch.clean;
      match summary.Deobf.Batch.outcomes with
      | [ o ] ->
          check_b "output written into the nested directory" true
            (match o.Deobf.Batch.output_file with
            | Some p -> Sys.file_exists p
            | None -> false)
      | _ -> Alcotest.fail "expected one outcome")

let test_out_dir_regular_file_reports_write_failure () =
  with_temp_dir (fun dir ->
      let input = Filename.concat dir "one.ps1" in
      write input "Write-Host 'x'";
      let out_dir = Filename.concat dir "occupied" in
      write out_dir "not a directory";
      let summary = Deobf.Batch.run_files ~out_dir [ input ] in
      check_i "file still accounted for" 1 summary.Deobf.Batch.total;
      check_i "degraded, not crashed" 1 summary.Deobf.Batch.degraded;
      match summary.Deobf.Batch.outcomes with
      | [ o ] ->
          check_b "structured write failure recorded" true
            (List.exists
               (fun (s : Deobf.Engine.failure_site) -> s.phase = "write")
               o.Deobf.Batch.failures);
          check_b "no output path claimed" true
            (o.Deobf.Batch.output_file = None)
      | _ -> Alcotest.fail "expected one outcome")

let suite =
  [
    Alcotest.test_case "pool map matches sequential" `Quick
      test_pool_map_matches_sequential;
    Alcotest.test_case "pool map propagates exceptions" `Quick
      test_pool_map_propagates_exception;
    Alcotest.test_case "deadlines stay domain-local" `Quick
      test_deadlines_stay_domain_local;
    Alcotest.test_case "parallel guarded runs, mixed deadlines" `Slow
      test_parallel_guarded_runs_mixed_deadlines;
    Alcotest.test_case "cache hit matches miss" `Quick
      test_cache_hit_matches_miss;
    Alcotest.test_case "batch jobs=4 byte-identical to jobs=1" `Slow
      test_batch_jobs4_byte_identical;
    Alcotest.test_case "ensure_dir creates nested out_dir" `Quick
      test_ensure_dir_nested;
    Alcotest.test_case "out_dir as regular file reports write failure" `Quick
      test_out_dir_regular_file_reports_write_failure;
  ]
