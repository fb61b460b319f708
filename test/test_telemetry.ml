(* Telemetry layer: span nesting and ordering, JSONL serialization,
   histogram bucket edges, cross-domain metrics aggregation, batch trace
   identity, and the zero-allocation disabled path. *)

module T = Pscommon.Telemetry
module M = Pscommon.Telemetry.Metrics
module Pool = Pscommon.Pool

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* ---------- spans ---------- *)

let test_span_nesting () =
  let tr = T.create () in
  T.with_trace tr (fun () ->
      T.span "outer" (fun () ->
          T.event "point" ~attrs:[ ("k", T.I 1) ];
          T.span "inner" (fun () -> ());
          ()));
  let evs = T.events tr in
  check_i "five events" 5 (List.length evs);
  let names = List.map (fun (e : T.event) -> e.T.name) evs in
  check_b "order" true
    (names = [ "outer"; "point"; "inner"; "inner"; "outer" ]);
  let kinds = List.map (fun (e : T.event) -> e.T.kind) evs in
  check_b "kinds" true
    (kinds
    = [ T.Span_begin; T.Point; T.Span_begin; T.Span_end; T.Span_end ]);
  (* sequence numbers are dense and timestamps never go backwards *)
  List.iteri (fun i (e : T.event) -> check_i "seq" i e.T.seq) evs;
  let rec mono = function
    | (a : T.event) :: (b : T.event) :: rest ->
        check_b "t_ms non-decreasing" true (b.T.t_ms >= a.T.t_ms);
        mono (b :: rest)
    | _ -> ()
  in
  mono evs;
  (* parentage: the point and inner span nest under outer *)
  match evs with
  | [ outer_b; point; inner_b; inner_e; outer_e ] ->
      check_i "outer at top level" 0 outer_b.T.parent;
      check_i "point under outer" outer_b.T.id point.T.parent;
      check_i "inner under outer" outer_b.T.id inner_b.T.parent;
      check_i "inner end id" inner_b.T.id inner_e.T.id;
      check_i "outer end id" outer_b.T.id outer_e.T.id
  | _ -> Alcotest.fail "unexpected event shape"

let test_span_end_autoclose () =
  (* span_end on an outer id closes intervening open spans first, so a
     non-local exit cannot corrupt nesting *)
  let tr = T.create () in
  T.with_trace tr (fun () ->
      let outer = T.span_begin "outer" in
      let _inner = T.span_begin "inner" in
      T.span_end outer);
  let kinds_and_names =
    List.map (fun (e : T.event) -> (e.T.kind, e.T.name)) (T.events tr)
  in
  check_b "inner auto-closed before outer" true
    (kinds_and_names
    = [ (T.Span_begin, "outer"); (T.Span_begin, "inner");
        (T.Span_end, "inner"); (T.Span_end, "outer") ])

let test_disabled_is_inert () =
  T.uninstall ();
  check_b "no ambient trace" false (T.active ());
  check_i "span_begin returns 0" 0 (T.span_begin "nope");
  T.span_end 0;
  T.event "nope";
  check_i "span runs the thunk" 41 (T.span "nope" (fun () -> 41))

(* ---------- JSONL ---------- *)

let test_jsonl_roundtrip () =
  let tr = T.create () in
  T.with_trace tr (fun () ->
      T.span "phase" ~attrs:[ ("file", T.S "a\"b\nc") ] (fun () ->
          T.event "hit" ~attrs:[ ("n", T.I 3); ("r", T.F 0.5); ("ok", T.B true) ]));
  let jsonl = T.to_jsonl tr in
  let lines =
    String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "")
  in
  check_i "events + summary line" (List.length (T.events tr) + 1)
    (List.length lines);
  List.iter
    (fun l ->
      check_b "line is an object" true
        (String.length l >= 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  let line n = List.nth lines n in
  (* attribute escaping: the quote and newline survive as JSON escapes *)
  check_b "escaped string attr" true
    (Pscommon.Strcase.contains ~needle:"\"file\": \"a\\\"b\\nc\"" (line 0));
  check_b "int, float and bool attrs" true
    (Pscommon.Strcase.contains ~needle:"\"n\": 3" (line 1)
    && Pscommon.Strcase.contains ~needle:"\"ok\": true" (line 1));
  (* every line (and the summary) carries the trace's correlation id *)
  List.iter
    (fun l ->
      check_b "line carries trace_id" true
        (Pscommon.Strcase.contains
           ~needle:(Printf.sprintf "\"trace_id\": \"%s\"" (T.trace_id tr))
           l))
    lines;
  check_b "summary line" true
    (Pscommon.Strcase.contains
       ~needle:"\"kind\": \"summary\"" (line 3)
    && Pscommon.Strcase.contains ~needle:"\"events\": 3, \"dropped\": 0"
         (line 3))

let test_ring_drops_oldest () =
  let tr = T.create ~capacity:16 () in
  T.with_trace tr (fun () ->
      for i = 1 to 40 do
        T.event "e" ~attrs:[ ("i", T.I i) ]
      done);
  check_i "dropped count" 24 (T.dropped tr);
  let evs = T.events tr in
  check_i "buffer holds capacity" 16 (List.length evs);
  (* the survivors are the newest, still in order *)
  check_i "first surviving seq" 24 ((List.hd evs).T.seq);
  check_b "summary counts the full stream" true
    (Pscommon.Strcase.contains ~needle:"\"events\": 40, \"dropped\": 24"
       (T.to_jsonl tr))

(* ---------- histogram bucket edges ---------- *)

let test_histogram_buckets () =
  (* first bucket swallows everything at or below its bound, including
     zero and negatives *)
  check_i "zero" 0 (M.bucket_of 0.0);
  check_i "negative" 0 (M.bucket_of (-3.0));
  check_i "tiny" 0 (M.bucket_of 0.0625);
  (* an observation exactly at a bound lands in that bucket; just above
     goes to the next *)
  for i = 0 to M.bucket_count - 2 do
    check_i "exact bound" i (M.bucket_of (M.bucket_bound i));
    if i + 1 < M.bucket_count - 1 then
      check_i "just above bound" (i + 1)
        (M.bucket_of (M.bucket_bound i *. 1.0001))
  done;
  (* huge and non-finite observations land in the overflow bucket *)
  check_i "huge" (M.bucket_count - 1) (M.bucket_of 1e12);
  check_i "infinity" (M.bucket_count - 1) (M.bucket_of infinity);
  check_i "nan" (M.bucket_count - 1) (M.bucket_of nan);
  check_b "overflow bound is infinite" true
    (M.bucket_bound (M.bucket_count - 1) = infinity)

let test_histogram_snapshot () =
  M.reset ();
  let h = M.histogram "test.snapshot_ms" in
  List.iter (M.observe h) [ 0.1; 0.1; 3.0; 1000.0 ];
  let snap = M.snapshot () in
  match List.assoc_opt "test.snapshot_ms" snap.M.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hs ->
      check_i "count" 4 hs.M.hs_count;
      check_b "sum" true (abs_float (hs.M.hs_sum -. 1003.2) < 1e-6);
      check_b "min" true (hs.M.hs_min = 0.1);
      check_b "max" true (hs.M.hs_max = 1000.0);
      check_i "non-empty buckets" 3 (List.length hs.M.hs_buckets);
      check_i "total bucketed" 4
        (List.fold_left (fun acc (_, n) -> acc + n) 0 hs.M.hs_buckets)

(* ---------- cross-domain aggregation ---------- *)

let test_metrics_aggregate_across_domains () =
  M.reset ();
  let c = M.counter "test.cross_domain" in
  let h = M.histogram "test.cross_domain_ms" in
  let per_task = 1000 in
  ignore
    (Pool.map ~jobs:4
       (fun task ->
         for _ = 1 to per_task do
           M.incr c
         done;
         M.observe h (float_of_int task);
         task)
       [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  check_i "counter sums every domain" (8 * per_task) (M.counter_value c);
  let snap = M.snapshot () in
  match List.assoc_opt "test.cross_domain_ms" snap.M.histograms with
  | None -> Alcotest.fail "histogram missing"
  | Some hs ->
      check_i "all observations kept" 8 hs.M.hs_count;
      check_b "sum" true (abs_float (hs.M.hs_sum -. 36.0) < 1e-9)

let test_reset_keeps_handles () =
  let c = M.counter "test.reset" in
  M.incr ~by:7 c;
  M.reset ();
  check_i "zeroed" 0 (M.counter_value c);
  M.incr c;
  check_i "handle still live" 1 (M.counter_value c)

(* A family member is the handle the direct lookup gives, registered on
   the suffix's first use and not before, whichever domain gets there
   first. *)
let test_families_match_direct_lookups () =
  let names snap = List.map fst snap.M.counters in
  let counters = M.counter_family "test.family." in
  check_b "nothing registered before the first use" false
    (List.mem "test.family.a" (names (M.snapshot ())));
  let a = M.member counters "a" in
  check_b "registered by the first use" true
    (List.mem "test.family.a" (names (M.snapshot ())));
  M.incr a;
  M.incr (M.member counters ("a" ^ ""));
  check_i "one handle per name" 2 (M.counter_value (M.counter "test.family.a"));
  let hs = M.histogram_family "test.family_ms." in
  M.observe (M.member hs "x") 1.0;
  M.observe (M.histogram "test.family_ms.x") 1.0;
  (match List.assoc_opt "test.family_ms.x" (M.snapshot ()).M.histograms with
  | Some h -> check_i "histogram shared" 2 h.M.hs_count
  | None -> Alcotest.fail "histogram missing");
  let before = M.counter_value (M.counter "test.family.b") in
  ignore
    (Pool.map ~jobs:4
       (fun k ->
         for _ = 1 to 100 do
           M.incr (M.member counters (if k mod 2 = 0 then "b" else "c"))
         done;
         k)
       [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  check_i "racing domains share b" (before + 400)
    (M.counter_value (M.counter "test.family.b"))

(* ---------- traces don't perturb batch output ---------- *)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let test_batch_trace_identity () =
  let dir = Filename.temp_dir "telemetry_batch" "" in
  let rng = Pscommon.Rng.of_int 7 in
  let files =
    List.init 6 (fun i ->
        let path = Filename.concat dir (Printf.sprintf "s%d.ps1" i) in
        write_file path
          (Obfuscator.Obfuscate.multilayer rng 2
             (Printf.sprintf
                "$x%d = 'pay';$y = 'load';Write-Host ($x%d + $y)" i i));
        path)
  in
  let out_plain = Filename.concat dir "out_plain" in
  let out_traced = Filename.concat dir "out_traced" in
  let trace_dir = Filename.concat dir "traces" in
  let s1 =
    Deobf.Batch.run_files ~timeout_s:30.0 ~out_dir:out_plain ~jobs:1 files
  in
  let s2 =
    Deobf.Batch.run_files ~timeout_s:30.0 ~out_dir:out_traced ~trace_dir
      ~jobs:4 files
  in
  check_i "same clean count" s1.Deobf.Batch.clean s2.Deobf.Batch.clean;
  List.iter
    (fun file ->
      let base = Filename.basename file in
      let read d =
        In_channel.with_open_bin (Filename.concat d base) In_channel.input_all
      in
      check_s ("output " ^ base) (read out_plain) (read out_traced);
      let trace_file = Filename.concat trace_dir (base ^ ".trace.jsonl") in
      check_b ("trace exists for " ^ base) true (Sys.file_exists trace_file);
      let trace = In_channel.with_open_bin trace_file In_channel.input_all in
      check_b "trace has a batch.file root span" true
        (Pscommon.Strcase.contains ~needle:"\"name\": \"batch.file\"" trace))
    files;
  (* the rollup is valid for this run: counts cover all six files *)
  let rollup = Deobf.Batch.metrics_json s2 in
  check_b "rollup lists the cache" true
    (Pscommon.Strcase.contains ~needle:"\"pieces_attempted\"" rollup)

(* sampling keys on the input index: every n-th file (0, n, 2n, …) writes
   its trace, the rest run untraced, and no output byte changes *)
let test_batch_trace_sample () =
  let dir = Filename.temp_dir "telemetry_sample" "" in
  let files =
    List.init 7 (fun i ->
        let path = Filename.concat dir (Printf.sprintf "s%d.ps1" i) in
        write_file path
          (Printf.sprintf "$x%d = 'pa' + 'y%d'\nWrite-Host $x%d" i i i);
        path)
  in
  let out_plain = Filename.concat dir "out_plain" in
  let out_traced = Filename.concat dir "out_traced" in
  let trace_dir = Filename.concat dir "traces" in
  ignore (Deobf.Batch.run_files ~timeout_s:30.0 ~out_dir:out_plain files);
  ignore
    (Deobf.Batch.run_files ~timeout_s:30.0 ~out_dir:out_traced ~trace_dir
       ~trace_sample:3 files);
  check_s "traces for indices 0, 3 and 6 only"
    "s0.ps1.trace.jsonl,s3.ps1.trace.jsonl,s6.ps1.trace.jsonl"
    (String.concat ","
       (List.sort String.compare (Array.to_list (Sys.readdir trace_dir))));
  List.iter
    (fun file ->
      let base = Filename.basename file in
      let read d =
        In_channel.with_open_bin (Filename.concat d base) In_channel.input_all
      in
      check_s ("output " ^ base) (read out_plain) (read out_traced))
    files

(* ---------- disabled path allocates nothing ---------- *)

let test_disabled_path_zero_alloc () =
  T.uninstall ();
  (* warm up so any one-time setup is outside the measured window *)
  for _ = 1 to 100 do
    T.event "warm"
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.event "bench";
    ignore (T.span_begin "bench")
  done;
  let allocated = Gc.minor_words () -. before in
  (* 20k disabled calls: a DLS read and a comparison each, no allocation.
     Allow slack for the loop itself and instrumentation noise. *)
  check_b
    (Printf.sprintf "allocated %.0f minor words for 20k disabled calls"
       allocated)
    true
    (allocated < 100.0)

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span_end auto-closes" `Quick test_span_end_autoclose;
    Alcotest.test_case "disabled API is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_buckets;
    Alcotest.test_case "histogram snapshot" `Quick test_histogram_snapshot;
    Alcotest.test_case "metrics aggregate across domains" `Quick
      test_metrics_aggregate_across_domains;
    Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
    Alcotest.test_case "metric families match direct lookups" `Quick
      test_families_match_direct_lookups;
    Alcotest.test_case "batch trace identity" `Quick test_batch_trace_identity;
    Alcotest.test_case "batch trace sample" `Quick test_batch_trace_sample;
    Alcotest.test_case "disabled path zero-alloc" `Quick
      test_disabled_path_zero_alloc;
  ]
