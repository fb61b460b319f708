(* Tests for the resilience layer: statement-boundary segmentation and
   partial-parse recovery, seeded chaos injection with its mutation fuzzer,
   and per-phase degradation under deadlines and output caps.  The
   standing contracts: no input — truncated, binary-prefixed,
   fault-injected — ever crashes a run; every file yields a classified
   outcome; and injection is a pure function of (seed, scope, probe
   order), so outputs replay byte-identically. *)

open Pscommon
module Seg = Psparse.Segment

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* every chaos test restores the disabled state, even on failure: the
   config is process-global and must not leak into later suites *)
let with_chaos cfg f =
  Chaos.set (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set None) f

let cfg ?(rate = 0.0) ?(site_rates = []) seed = { Chaos.seed; rate; site_rates }

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "resilience-%d" (Unix.getpid ()))
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
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---------- segmentation ---------- *)

let test_segment_valid_single_region () =
  let src = "$a = 1\nWrite-Output $a\nif ($a) { $a + 1 }\n" in
  match Seg.segment src with
  | [ r ] ->
      check_b "single parseable region" true (r.Seg.kind = Seg.Parseable);
      check_i "covers whole input from 0" 0 r.Seg.start;
      check_i "covers whole input to end" (String.length src) r.Seg.stop
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

let test_segment_empty () = check_i "empty input, no regions" 0 (List.length (Seg.segment ""))

let regions_cover src regions =
  let rec walk pos = function
    | [] -> pos = String.length src
    | r -> (
        match r with
        | { Seg.start; stop; _ } :: rest -> start = pos && stop > start && walk stop rest
        | [] -> false)
  in
  walk 0 regions

let test_segment_covers_damaged_input () =
  let src = "$a = 'x'\nif (1) { broken\n$b = 2\n\255\254\000 blob \000\n$c = 3\n" in
  let regions = Seg.segment src in
  check_b "contiguous cover" true (regions_cover src regions);
  check_b "has a parseable region" true
    (List.exists (fun r -> r.Seg.kind = Seg.Parseable) regions);
  check_b "has a binary region" true
    (List.exists (fun r -> r.Seg.kind = Seg.Binary) regions)

let test_sync_points_respect_strings () =
  (* the ; and newline inside the double-quoted string are not boundaries *)
  let src = "$a = \"x;\ny\"; $b = 1\n" in
  let quote_open = String.index src '"' in
  let quote_close = String.rindex src '"' in
  List.iter
    (fun p ->
      check_b
        (Printf.sprintf "sync point %d outside the string literal" p)
        true
        (p <= quote_open || p > quote_close))
    (Seg.sync_points src)

let test_sync_points_unbalanced_closer_clamped () =
  (* a stray } must not swallow the rest of the file: depth clamps at 0 and
     the following newline is still a boundary *)
  let src = "}\n$a = 1\n$b = 2\n" in
  let pts = Seg.sync_points src in
  check_b "boundary after stray closer" true (List.mem 2 pts);
  check_b "boundary between statements" true (List.mem 9 pts)

(* ---------- partial-parse recovery in the engine ---------- *)

let concat_script = "$p = 'al' + 'pha'\nWrite-Output $p\n"

let test_truncated_tail_recovers () =
  (* a partial download: valid statements, then a statement cut mid-token *)
  let src = concat_script ^ "$q = ('be' + 'ta'\n" in
  let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
  check_b "parse failure recorded" true
    (List.exists
       (fun (s : Deobf.Engine.failure_site) -> s.failure = Guard.Parse_failure)
       g.Deobf.Engine.failures);
  check_b "at least one region recovered" true (g.Deobf.Engine.regions_recovered >= 1);
  check_b "prefix deobfuscated" true
    (let out = g.Deobf.Engine.result.Deobf.Engine.output in
     let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
       at 0
     in
     contains out "'alpha'");
  check_b "damaged tail passed through verbatim" true
    (let out = g.Deobf.Engine.result.Deobf.Engine.output in
     String.length out >= 18
     && String.sub out (String.length out - 18) 18 = "$q = ('be' + 'ta'\n")

let test_binary_prefix_recovers () =
  (* the unbalanced ( in the blob both breaks the whole-file parse and
     stresses the depth-insensitive refinement pass *)
  let blob = "\000\001\255\254(PE\000\000junk\000\n" in
  let src = blob ^ concat_script in
  let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
  check_b "recovered past the blob" true (g.Deobf.Engine.regions_recovered >= 1);
  check_b "blob preserved verbatim" true
    (String.length g.Deobf.Engine.result.Deobf.Engine.output >= String.length blob
    && String.sub g.Deobf.Engine.result.Deobf.Engine.output 0 (String.length blob)
       = blob)

let test_mid_here_string_cut () =
  (* the here-string never terminates: its opener must not drag the valid
     prefix down with it *)
  let src = concat_script ^ "$h = @\"\npayload line\n" in
  let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
  check_b "prefix recovered" true (g.Deobf.Engine.regions_recovered >= 1)

let test_valid_input_has_no_regions () =
  (* partial recovery must be invisible on inputs that parse whole *)
  let src = "$a = 'x' + 'y'\nWrite-Output $a\n" in
  let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
  check_i "no regions on a valid file" 0 g.Deobf.Engine.regions_total

let test_recovery_fixpoint_stable () =
  (* re-running the engine on a partially recovered output changes nothing:
     recovered regions are already at their fixpoint, damage is verbatim *)
  let src = concat_script ^ "if (1) { broken\n$b = 1 + 2\n" in
  let once = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
  let out1 = once.Deobf.Engine.result.Deobf.Engine.output in
  let twice = Deobf.Engine.run_guarded ~timeout_s:10.0 out1 in
  check_s "second pass is identity" out1
    twice.Deobf.Engine.result.Deobf.Engine.output

let check_truncated_majority ~frac sources =
  let attempted = ref 0 and recovered = ref 0 in
  List.iter
    (fun src ->
      let src = Chaos.Mutate.truncate_at frac src in
      let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
      if
        List.exists
          (fun (s : Deobf.Engine.failure_site) -> s.Deobf.Engine.phase = "parse")
          g.Deobf.Engine.failures
      then begin
        incr attempted;
        if g.Deobf.Engine.regions_recovered >= 1 then incr recovered
      end)
    sources;
  check_b "some truncations made files unparseable" true (!attempted >= 3);
  check_b
    (Printf.sprintf "majority recovered (%d of %d)" !recovered !attempted)
    true
    (2 * !recovered > !attempted)

let test_truncated_majority_recovers () =
  (* the acceptance bar: truncating a small varied corpus at mid-file must
     leave a majority of the now-unparseable files partially recovered
     rather than passed through whole *)
  let sample i =
    Printf.sprintf
      "$a%d = 'p' + 'q%d'\nWrite-Output $a%d\n$s%d = \"lit%d\"\n$b%d = %d + 1\nWrite-Output ($b%d)\n"
      i i i i i i i i
  in
  check_truncated_majority ~frac:0.45 (List.init 8 (fun i -> sample (i + 1)));
  (* the same bar on a seeded generated corpus *)
  check_truncated_majority ~frac:0.5
    (List.map
       (fun (s : Corpus.Generator.sample) -> s.Corpus.Generator.obfuscated)
       (Corpus.Generator.generate ~seed:42 ~count:32))

(* ---------- chaos: determinism and containment ---------- *)

let test_probe_disabled_is_silent () =
  Chaos.set None;
  Chaos.reset_draws ();
  for _ = 1 to 1000 do
    Chaos.probe "anywhere"
  done;
  check_i "disabled probes draw nothing" 0 (Chaos.draws ())

(* every production run pays the disabled probes: one atomic load and a
   comparison each, no allocation *)
let test_probe_disabled_zero_alloc () =
  Chaos.set None;
  for _ = 1 to 100 do
    Chaos.probe "warm"
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 20_000 do
    Chaos.probe "anywhere"
  done;
  let allocated = Gc.minor_words () -. before in
  check_b
    (Printf.sprintf "allocated %.0f minor words for 20k disabled probes"
       allocated)
    true (allocated < 100.0)

let fault_trace seed =
  (* which of 100 scoped probe calls fire, and as what *)
  with_chaos (cfg ~rate:0.3 seed) (fun () ->
      Chaos.with_scope "trace" (fun () ->
          List.init 100 (fun i ->
              match Chaos.probe "site" with
              | () -> (i, "ok")
              | exception Chaos.Injected _ -> (i, "injected")
              | exception Guard.Deadline_exceeded -> (i, "deadline")
              | exception Stack_overflow -> (i, "stack")
              (* the memory fault is Guard's dedicated injected-OOM
                 exception, not the runtime's preallocated Out_of_memory *)
              | exception Guard.Injected_oom -> (i, "oom"))))

let test_chaos_deterministic_replay () =
  let a = fault_trace 11 in
  let b = fault_trace 11 in
  check_b "same seed, same faults" true (a = b);
  let c = fault_trace 12 in
  check_b "different seed, different faults" true (a <> c)

let test_chaos_faults_classified () =
  (* at rate 1.0 every probe fires; whatever it throws, Guard.protect must
     map it into the containment taxonomy *)
  with_chaos (cfg ~rate:1.0 21) (fun () ->
      Chaos.with_scope "classify" (fun () ->
          for _ = 1 to 50 do
            match Guard.protect (fun () -> Chaos.probe "site") with
            | Ok _ -> Alcotest.fail "probe at rate 1.0 did not fire"
            | Error
                ( Guard.Timeout | Guard.Stack_exhausted | Guard.Oom
                | Guard.Unexpected _ ) ->
                ()
            | Error f ->
                Alcotest.failf "unclassified fault %s" (Guard.failure_label f)
          done))

let test_chaos_engine_total () =
  (* injection at every engine-internal site: runs never escape, and every
     degradation comes back as a classified failure site *)
  let src = concat_script ^ "$z = [char]98 + 'x'\n" in
  List.iter
    (fun seed ->
      with_chaos
        (cfg seed
           ~site_rates:
             [ ("recover.piece", 0.5); ("interp.eval", 0.3); ("guard", 0.05) ])
        (fun () ->
          Chaos.with_scope "engine" (fun () ->
              let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
              ignore g.Deobf.Engine.result.Deobf.Engine.output)))
    [ 1; 2; 3; 5; 8; 13 ]

let chaos_batch_sites =
  [ ("recover.piece", 0.4); ("interp.eval", 0.2); ("pool.task", 0.2);
    ("batch.read", 0.1); ("batch.write", 0.1) ]

let batch_corpus dir =
  let files =
    [ ("good.ps1", "$a = 'x' + 'y'\nWrite-Output $a\n");
      ("frag.ps1", "$a = 'he' + 'llo'\nif (1) { broken\n$b = 1 + 2\n");
      ("pieces.ps1", "$p = ('a' + 'b') + ('c' + 'd')\nWrite-Output $p\n");
      ("blob.bin", "\000\001\002\255binary\000\n") ]
  in
  List.map
    (fun (name, src) ->
      let path = Filename.concat dir name in
      write_file path src;
      path)
    files

let test_chaos_batch_never_crashes () =
  (* several seeds, both sequential and parallel: every file always yields
     a classified outcome and the deobfuscated bytes are identical across
     jobs levels — injection is scheduling-independent *)
  with_temp_dir (fun dir ->
      let in_dir = Filename.concat dir "in" in
      Sys.mkdir in_dir 0o755;
      let files = batch_corpus in_dir in
      List.iter
        (fun seed ->
          with_chaos (cfg seed ~site_rates:chaos_batch_sites) (fun () ->
              let run jobs out =
                let summary =
                  Deobf.Batch.run_files ~timeout_s:10.0
                    ~out_dir:(Filename.concat dir out) ~jobs files
                in
                check_i
                  (Printf.sprintf "seed %d jobs %d: all files reported" seed jobs)
                  (List.length files) summary.Deobf.Batch.total;
                summary
              in
              let s1 = run 1 (Printf.sprintf "out1-%d" seed) in
              let s4 = run 4 (Printf.sprintf "out4-%d" seed) in
              List.iter2
                (fun (o1 : Deobf.Batch.outcome) (o4 : Deobf.Batch.outcome) ->
                  check_s "same file order" o1.Deobf.Batch.file o4.Deobf.Batch.file;
                  match (o1.Deobf.Batch.output_file, o4.Deobf.Batch.output_file) with
                  | Some p1, Some p4 ->
                      check_s
                        (Printf.sprintf "seed %d: %s byte-identical across jobs"
                           seed
                           (Filename.basename o1.Deobf.Batch.file))
                        (read_file p1) (read_file p4)
                  | None, None -> ()
                  | _ ->
                      Alcotest.failf "seed %d: %s written in one run only" seed
                        o1.Deobf.Batch.file)
                s1.Deobf.Batch.outcomes s4.Deobf.Batch.outcomes))
        [ 3; 7; 31 ])

let test_chaos_traced_untraced_identical () =
  with_temp_dir (fun dir ->
      let in_dir = Filename.concat dir "in" in
      Sys.mkdir in_dir 0o755;
      let files = batch_corpus in_dir in
      with_chaos (cfg 17 ~site_rates:chaos_batch_sites) (fun () ->
          let plain =
            Deobf.Batch.run_files ~timeout_s:10.0
              ~out_dir:(Filename.concat dir "plain") files
          in
          let traced =
            Deobf.Batch.run_files ~timeout_s:10.0
              ~out_dir:(Filename.concat dir "traced")
              ~trace_dir:(Filename.concat dir "traces") files
          in
          List.iter2
            (fun (a : Deobf.Batch.outcome) (b : Deobf.Batch.outcome) ->
              match (a.Deobf.Batch.output_file, b.Deobf.Batch.output_file) with
              | Some pa, Some pb ->
                  check_s "tracing does not perturb injection" (read_file pa)
                    (read_file pb)
              | None, None -> ()
              | _ -> Alcotest.fail "output written in one mode only")
            plain.Deobf.Batch.outcomes traced.Deobf.Batch.outcomes))

let test_chaos_task_fault_contained () =
  (* a fault in the pool worker itself, outside every engine guard, must
     come back as a "task" failure site, not abort the batch *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "a.ps1" in
      write_file path "$a = 1\n";
      with_chaos (cfg 5 ~site_rates:[ ("pool.task", 1.0) ]) (fun () ->
          let o = Deobf.Batch.process_file ~timeout_s:5.0 path in
          check_b "task failure recorded" true
            (List.exists
               (fun (s : Deobf.Engine.failure_site) ->
                 s.Deobf.Engine.phase = "task")
               o.Deobf.Batch.failures)))

(* ---------- mutation fuzzer ---------- *)

let prop_mutate_total =
  QCheck.Test.make ~name:"resilience: mutations are total" ~count:200
    QCheck.(pair small_nat (string_of_size QCheck.Gen.(int_range 0 200)))
    (fun (seed, s) ->
      let rng = Rng.of_int seed in
      List.for_all
        (fun kind ->
          let out = Chaos.Mutate.apply rng kind s in
          (* usable output: a string, possibly empty only for empty-ish input *)
          String.length out >= 0)
        Chaos.Mutate.kinds)

let prop_mutated_scripts_contained =
  (* fuzz the engine with corrupted real-ish scripts: always a structured
     verdict, never an escape *)
  QCheck.Test.make ~name:"resilience: engine total on mutated scripts" ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (seed, pick) ->
      let rng = Rng.of_int (seed + 1) in
      let base =
        "$u = 'http://example.com/a.ps1'\n$p = 'pay' + 'load'\nWrite-Output $p\n"
      in
      let kind = List.nth Chaos.Mutate.kinds (pick mod List.length Chaos.Mutate.kinds) in
      let src = Chaos.Mutate.apply rng kind base in
      let g = Deobf.Engine.run_guarded ~timeout_s:10.0 src in
      g.Deobf.Engine.failures = []
      || g.Deobf.Engine.regions_recovered >= 1
      || String.equal g.Deobf.Engine.result.Deobf.Engine.output src)

(* ---------- one degradation path: a failed phase keeps the best text ---------- *)

(* a foldable concatenation, a backtick-obfuscated command, then a decode
   bomb padded so that only the wall clock stops it within 0.4 s *)
let partial_bomb =
  "$a = 'he' + 'llo'\nWr`ite-Out`put $a\n"
  ^ Test_guard.decode_bomb ~timeout_s:0.4
  ^ "\n"

let site_labels failures =
  List.map
    (fun (s : Deobf.Engine.failure_site) ->
      s.Deobf.Engine.phase ^ "/" ^ Guard.failure_label s.Deobf.Engine.failure)
    failures

let check_partial_recovery output failures =
  check_b "the fold before the bomb is kept" true
    (Strcase.contains ~needle:"$a = 'hello'" output);
  check_s "one failure site" "recovery/timeout"
    (String.concat "," (site_labels failures))

let test_deadline_keeps_partial_recovery () =
  (* the bomb overruns the file's deadline: the engine stops the recovery
     loop, keeps what the completed passes recovered, and the file is done
     — one run under one deadline *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bomb.ps1" in
      write_file path partial_bomb;
      let out_dir = Filename.concat dir "out" in
      Sys.mkdir out_dir 0o755;
      let timeout_s = 0.4 in
      let o = Deobf.Batch.process_file ~timeout_s ~out_dir path in
      check_partial_recovery
        (read_file (Filename.concat out_dir "bomb.ps1"))
        o.Deobf.Batch.failures;
      check_b
        (Printf.sprintf "wall %.0f ms within one deadline" o.Deobf.Batch.wall_ms)
        true
        (o.Deobf.Batch.wall_ms < (timeout_s +. 0.5) *. 1000.0))

(* the same bomb with dear steps, padded so that the gate's step budget,
   that of the whole script, outlasts the deadline too: the verify gate's
   reference run used to get its own 5 s budget after the engine had spent
   the file's deadline *)
let verify_bomb =
  Printf.sprintf
    "$a = 'he' + 'llo'\nWr`ite-Out`put $a\n\
     $x = $(while (1 -lt 2) { $null = ('a' * 20000).ToUpper() }%s; 'done')\n"
    (Test_guard.wall_clock_pad ~timeout_s:0.4)

let test_verify_gate_honours_deadline () =
  let started = Guard.now () in
  let g, o = Deobf.Verify.run_guarded ~timeout_s:0.4 verify_bomb in
  let elapsed = Guard.now () -. started in
  check_b (Printf.sprintf "returned in %.2f s" elapsed) true (elapsed < 0.44);
  check_s "verdict" "unverifiable"
    (Deobf.Verify.verdict_name o.Deobf.Verify.verdict);
  check_b "partial recovery kept" true
    (String.starts_with ~prefix:"$a = 'hello'"
       g.Deobf.Engine.result.Deobf.Engine.output)

(* each step builds a megabyte, so 2048 steps take seconds: the deadline
   must be polled by the charge for what a step built, not only by the
   step counter *)
let string_bomb =
  "while ($i -lt 100000) { $null = ('a' * 1000000).ToUpper(); $i++ }\n"

let test_string_bomb_honours_deadline () =
  (* padded so that the dynamic stage's step budget, that of the script it
     runs, outlasts the deadline *)
  let src = string_bomb ^ Test_guard.wall_clock_pad ~timeout_s:0.5 ^ "\n" in
  let started = Guard.now () in
  let o, out =
    Deobf.Batch.run_source ~verify:false ~timeout_s:0.5 ~name:"string-bomb" src
  in
  let elapsed = Guard.now () -. started in
  check_b (Printf.sprintf "returned in %.2f s" elapsed) true (elapsed < 0.55);
  check_s "script kept" src out;
  check_b "the overrun is reported" true
    (List.exists
       (fun (f : Deobf.Engine.failure_site) ->
         f.Deobf.Engine.failure = Guard.Timeout)
       o.Deobf.Batch.failures)

(* a command that joins its input builds a new string as an expression
   does: each [Out-String] copies a megabyte, so it must be charged what
   it builds, or the gate's reference run spends seconds under its step
   budget before it ends *)
let out_string_bomb =
  "$big = 'a' * 1000000\n\
   while ($i -lt 100000) { $x = $big | Out-String; $i++ }\n"

let test_out_string_bomb_charged () =
  let started = Guard.now () in
  let o, _ =
    Deobf.Batch.run_source ~verify:true ~name:"out-string-bomb" out_string_bomb
  in
  let elapsed = Guard.now () -. started in
  check_b (Printf.sprintf "returned in %.2f s" elapsed) true (elapsed < 1.0);
  check_s "verdict"
    "unverifiable: original: interpreter limit: step budget exhausted"
    (match o.Deobf.Batch.verdict with
    | Some v ->
        Deobf.Verify.verdict_name v ^ ": "
        ^ Option.value ~default:"" (Deobf.Verify.verdict_detail v)
    | None -> "none")

(* the deadline passes after the gate has found a divergence: forced diff
   faults make the first output diverge, bisection names an edit, and the
   rollback re-run finishes just as the deadline passes, so the next
   round's sandbox runs are cut short.  The divergence must stand: the
   verdict is diverged with the rollback on record, never unverifiable *)
(* at default budgets the same bomb ends on the dynamic stage's step
   budget, not on the 30 s request deadline it used to spend: the later
   phases run and the gate ends on its own step budget *)
let test_dynamic_stage_bounded () =
  let started = Guard.now () in
  let o, out = Deobf.Batch.run_source ~verify:true ~name:"string-bomb" string_bomb in
  let elapsed = Guard.now () -. started in
  check_b (Printf.sprintf "returned in %.2f s" elapsed) true (elapsed < 3.0);
  check_i "dynamic region unverifiable" 1
    o.Deobf.Batch.stats.Deobf.Recover.dynamic_unverifiable;
  check_b "no timeout" false
    (List.exists
       (fun (f : Deobf.Engine.failure_site) ->
         f.Deobf.Engine.failure = Guard.Timeout)
       o.Deobf.Batch.failures);
  check_b "renamed and reformatted" true
    (List.mem_assoc "rename" o.Deobf.Batch.phase_ms
    && List.mem_assoc "reformat" o.Deobf.Batch.phase_ms);
  check_b "no check key" false (List.mem_assoc "check" o.Deobf.Batch.phase_ms);
  check_s "output of an unhurried run" (Pipeline.output string_bomb) out;
  check_s "verdict"
    "unverifiable: original: interpreter limit: step budget exhausted"
    (match o.Deobf.Batch.verdict with
    | Some v ->
        Deobf.Verify.verdict_name v ^ ": "
        ^ Option.value ~default:"" (Deobf.Verify.verdict_detail v)
    | None -> "none")

(* one backtracking match on 201 characters used to take 2 000 000
   matcher steps at each start position, some 8 s; it now draws from the
   request's budgets while it runs *)
let test_regex_bomb_honours_deadline () =
  let src = "$s = ('a' * 200) + 'b'\n$s -match '(a+)+$'\n" in
  let started = Guard.now () in
  ignore (Deobf.Batch.run_source ~verify:true ~timeout_s:1.0 ~name:"regex-bomb" src);
  let elapsed = Guard.now () -. started in
  check_b (Printf.sprintf "returned in %.2f s" elapsed) true (elapsed < 1.1)

let test_verify_deadline_keeps_divergence () =
  with_chaos (cfg 9 ~site_rates:[ ("verify.diff", 1.0) ]) (fun () ->
      let src = "$a = ('te'+'st'); Write-Output $a" in
      let deadline = Guard.deadline_after 0.5 in
      let rerun_output = ref "" in
      let rerun ~suppress =
        let g = Deobf.Engine.run_guarded ~suppress src in
        rerun_output := g.Deobf.Engine.result.Deobf.Engine.output;
        Unix.sleepf (Float.max 0.0 (Guard.remaining_s deadline) +. 0.01);
        g
      in
      let g, o =
        Guard.within deadline (fun () ->
            Deobf.Verify.gate ~rerun ~src (Deobf.Engine.run_guarded src))
      in
      check_s "verdict" "diverged" (Deobf.Verify.verdict_name o.Deobf.Verify.verdict);
      check_i "one rollback on record" 1 (List.length o.Deobf.Verify.suppressed);
      check_b "rolled-back rule named" true (o.Deobf.Verify.rolled_rules <> []);
      check_b "the rollback re-run was made" true (!rerun_output <> "");
      check_s "current round's run kept" !rerun_output
        g.Deobf.Engine.result.Deobf.Engine.output)

(* the deadline passes in the middle of bisection: the reference and
   output runs finish and differ, but replaying the journal's one edit
   yields a loop only the deadline stops (the padding buys every run of
   the gate the steps to outlast it).  The divergence is already
   confirmed, so the verdict is diverged (as when out of rounds) with the
   output kept, never unverifiable, and no rollback re-run starts *)
let test_verify_deadline_in_bisection_keeps_divergence () =
  let src =
    "$n = 0\nWrite-Output 'x'\n" ^ Test_guard.wall_clock_pad ~timeout_s:0.3
  in
  let base = Deobf.Engine.run_guarded "Write-Output 'y'" in
  let edit =
    { Deobf.Editlog.phase = "recover"; kind = "piece"; pass = 0; start = 0;
      stop = 6; before = "$n = 0"; after = "while (1 -lt 2) { }" }
  in
  let guarded =
    { base with
      Deobf.Engine.edit_log =
        [ { Deobf.Editlog.s_phase = "recover"; s_pass = 0; s_edits = [ edit ] } ] }
  in
  let rerun ~suppress:_ = Alcotest.fail "rollback re-run past the deadline" in
  let started = Guard.now () in
  let g, o =
    Guard.within (Guard.deadline_after 0.3) (fun () ->
        Deobf.Verify.gate ~rerun ~src guarded)
  in
  let elapsed = Guard.now () -. started in
  check_b (Printf.sprintf "returned in %.2f s" elapsed) true (elapsed < 2.0);
  check_s "verdict" "diverged" (Deobf.Verify.verdict_name o.Deobf.Verify.verdict);
  check_i "nothing rolled back" 0 (List.length o.Deobf.Verify.suppressed);
  check_s "output kept" base.Deobf.Engine.result.Deobf.Engine.output
    g.Deobf.Engine.result.Deobf.Engine.output

let test_admission_deadline_keeps_partial_recovery () =
  (* a serve request: the admission deadline is ambient around the whole
     request and is shorter than the engine's own timeout *)
  match
    Guard.protect ~deadline:(Guard.deadline_after 0.4) (fun () ->
        Deobf.Batch.run_source ~timeout_s:30.0
          ~name:"request" partial_bomb)
  with
  | Error f -> Alcotest.failf "request escaped: %s" (Guard.failure_to_string f)
  | Ok (o, output) -> check_partial_recovery output o.Deobf.Batch.failures

let test_recovery_fault_keeps_token_text () =
  (* recovery folds the repetition past the output cap; the phase fails and
     falls back to the token phase's text, not to the raw input *)
  let g =
    Deobf.Engine.run_guarded ~max_output_bytes:31
      "W`r`i`t`e`-`O`u`t`p`u`t ('a'*30)"
  in
  check_s "token-phase text kept" "Write-Output ('a'*30)\n"
    g.Deobf.Engine.result.Deobf.Engine.output;
  check_s "recovery failure on record" "recovery/output-too-large"
    (String.concat "," (site_labels g.Deobf.Engine.failures))

let test_ladder_parse_failure_no_retry () =
  (* a pure parse failure is answered by partial recovery's best effort *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "frag.ps1" in
      write_file path "$a = 'he' + 'llo'\nif (1) { broken\n";
      let o = Deobf.Batch.process_file ~timeout_s:5.0 path in
      check_b "partial recovery still ran" true (o.Deobf.Batch.regions_total >= 1))

let test_clean_means_full_strength () =
  with_temp_dir (fun dir ->
      let good = Filename.concat dir "good.ps1" in
      let bomb = Filename.concat dir "bomb.ps1" in
      write_file good "$a = 'x' + 'y'\nWrite-Output $a\n";
      write_file bomb (Test_guard.decode_bomb ~timeout_s:0.4 ^ "\n");
      let s = Deobf.Batch.run_files ~timeout_s:0.4 [ good; bomb ] in
      check_i "only the untouched file counts as clean" 1 s.Deobf.Batch.clean;
      check_i "the timed-out file counts as degraded" 1 s.Deobf.Batch.degraded)

(* --- verify.diff chaos: faults inside the effect-log comparison --- *)

(* a forced comparison fault reads as a (spurious) divergence: the gate
   must drive bounded rollback to the input — never crash, never report
   equivalent *)
let test_chaos_verify_diff_forces_rollback () =
  with_chaos (cfg 9 ~site_rates:[ ("verify.diff", 1.0) ]) (fun () ->
      let src = "Write-Output ('te'+'st')" in
      (* forced faults make every rewrite look divergent, so reaching the
         all-rolled-back fixpoint needs one round per journaled rewrite:
         this script's are few enough for the gate's four rounds *)
      let g, o = Deobf.Verify.run_guarded src in
      (match o.Deobf.Verify.verdict with
      | Deobf.Verify.Rolled_back _ -> ()
      | v ->
          Alcotest.failf "expected rolled_back under forced diff faults, got %s"
            (Deobf.Verify.verdict_name v));
      (* every rewrite looks divergent, so the safe fixpoint is the input *)
      check_s "fully rolled back to input" src g.Deobf.Engine.result.Deobf.Engine.output)

(* intermittent comparison faults: any verdict is acceptable except a
   crash, and the output must always parse when the input does *)
let test_chaos_verify_diff_contained () =
  for seed = 1 to 6 do
    with_chaos (cfg seed ~site_rates:[ ("verify.diff", 0.4) ]) (fun () ->
        let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x" in
        let g, _ = Deobf.Verify.run_guarded src in
        check_b
          (Printf.sprintf "seed %d output parses" seed)
          true
          (match Psparse.Parser.parse g.Deobf.Engine.result.Deobf.Engine.output with
          | Ok _ -> true
          | Error _ -> false))
  done

(* the batch gate under verify.diff chaos: verdicts degrade, outputs and
   reports are still produced for every file *)
let test_chaos_verify_batch_contained () =
  with_temp_dir (fun dir ->
      let files =
        List.map
          (fun (name, body) ->
            let p = Filename.concat dir name in
            write_file p body;
            p)
          [ ("a.ps1", "$a = ('o'+'ne'); Write-Output $a\n");
            ("b.ps1", "Write-Output ('t'+'wo')\n") ]
      in
      let out_dir = Filename.concat dir "out" in
      with_chaos (cfg 13 ~site_rates:[ ("verify.diff", 1.0) ]) (fun () ->
          let s = Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir ~verify:true files in
          check_i "all files processed" 2 s.Deobf.Batch.total;
          List.iter
            (fun (o : Deobf.Batch.outcome) ->
              check_b "outcome carries a verdict" true (o.Deobf.Batch.verdict <> None);
              check_b "output written" true
                (match o.Deobf.Batch.output_file with
                | Some f -> Sys.file_exists f
                | None -> false))
            s.Deobf.Batch.outcomes))

let suite =
  [
    Alcotest.test_case "segment: valid file is one region" `Quick
      test_segment_valid_single_region;
    Alcotest.test_case "segment: empty input" `Quick test_segment_empty;
    Alcotest.test_case "segment: damaged input covered" `Quick
      test_segment_covers_damaged_input;
    Alcotest.test_case "sync points respect strings" `Quick
      test_sync_points_respect_strings;
    Alcotest.test_case "sync points clamp stray closers" `Quick
      test_sync_points_unbalanced_closer_clamped;
    Alcotest.test_case "truncated tail recovers" `Quick test_truncated_tail_recovers;
    Alcotest.test_case "binary prefix recovers" `Quick test_binary_prefix_recovers;
    Alcotest.test_case "mid-here-string cut recovers" `Quick test_mid_here_string_cut;
    Alcotest.test_case "valid input has no regions" `Quick
      test_valid_input_has_no_regions;
    Alcotest.test_case "recovery fixpoint stable" `Quick test_recovery_fixpoint_stable;
    Alcotest.test_case "truncated majority recovers" `Quick
      test_truncated_majority_recovers;
    Alcotest.test_case "disabled probes silent" `Quick test_probe_disabled_is_silent;
    Alcotest.test_case "disabled probes zero-alloc" `Quick
      test_probe_disabled_zero_alloc;
    Alcotest.test_case "chaos deterministic replay" `Quick
      test_chaos_deterministic_replay;
    Alcotest.test_case "chaos faults classified" `Quick test_chaos_faults_classified;
    Alcotest.test_case "chaos engine total" `Quick test_chaos_engine_total;
    Alcotest.test_case "chaos batch never crashes" `Slow
      test_chaos_batch_never_crashes;
    Alcotest.test_case "chaos traced/untraced identical" `Quick
      test_chaos_traced_untraced_identical;
    Alcotest.test_case "chaos task fault contained" `Quick
      test_chaos_task_fault_contained;
    QCheck_alcotest.to_alcotest prop_mutate_total;
    QCheck_alcotest.to_alcotest prop_mutated_scripts_contained;
    Alcotest.test_case "deadline keeps partial recovery" `Quick
      test_deadline_keeps_partial_recovery;
    Alcotest.test_case "verify gate honours the deadline" `Quick
      test_verify_gate_honours_deadline;
    Alcotest.test_case "string bomb honours the deadline" `Quick
      test_string_bomb_honours_deadline;
    Alcotest.test_case "dynamic stage is bounded by its budget" `Quick
      test_dynamic_stage_bounded;
    Alcotest.test_case "regex bomb honours the deadline" `Quick
      test_regex_bomb_honours_deadline;
    Alcotest.test_case "out-string bomb is charged" `Quick
      test_out_string_bomb_charged;
    Alcotest.test_case "verify deadline keeps a found divergence" `Quick
      test_verify_deadline_keeps_divergence;
    Alcotest.test_case "verify deadline in bisection keeps divergence" `Quick
      test_verify_deadline_in_bisection_keeps_divergence;
    Alcotest.test_case "admission deadline keeps partial recovery" `Quick
      test_admission_deadline_keeps_partial_recovery;
    Alcotest.test_case "recovery fault keeps token-phase text" `Quick
      test_recovery_fault_keeps_token_text;
    Alcotest.test_case "ladder parse failure no retry" `Quick
      test_ladder_parse_failure_no_retry;
    Alcotest.test_case "clean means full strength" `Quick
      test_clean_means_full_strength;
    Alcotest.test_case "chaos verify.diff forces rollback" `Quick
      test_chaos_verify_diff_forces_rollback;
    Alcotest.test_case "chaos verify.diff contained" `Quick
      test_chaos_verify_diff_contained;
    Alcotest.test_case "chaos verify.diff batch contained" `Quick
      test_chaos_verify_batch_contained;
  ]
