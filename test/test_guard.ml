(* Tests for the fault-containment layer: Guard.protect, cooperative
   deadlines, the guarded engine pipeline, and crash-isolated batch runs.
   Adversarial inputs — deeply nested scripts, decode bombs, random bytes —
   must come back as structured failures, never as uncaught exceptions. *)

open Pscommon

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* ---------- Guard primitives ---------- *)

let test_protect_value () =
  check_b "ok result" true (Guard.protect (fun () -> 41 + 1) = Ok 42)

let test_protect_stack_overflow () =
  let rec boom n = 1 + boom (n + 1) in
  check_b "stack overflow contained" true
    (Guard.protect (fun () -> boom 0) = Error Guard.Stack_exhausted)

let test_protect_stray_exception () =
  match Guard.protect (fun () -> failwith "boom") with
  | Error (Guard.Unexpected _) -> ()
  | _ -> Alcotest.fail "expected Unexpected"

let test_protect_expired_deadline () =
  check_b "expired deadline never runs f" true
    (Guard.protect ~deadline:(Guard.now () -. 1.0) (fun () -> 1)
    = Error Guard.Timeout)

let test_protect_output_cap () =
  check_b "oversized output" true
    (Guard.protect ~max_output_bytes:4 ~measure:String.length (fun () ->
         "too long")
    = Error Guard.Output_too_large);
  check_b "within cap" true
    (Guard.protect ~max_output_bytes:64 ~measure:String.length (fun () -> "ok")
    = Ok "ok")

let test_protect_nests_ambient () =
  (* inner guard cannot outlive the outer deadline *)
  let r =
    Guard.protect ~deadline:(Guard.now () -. 1.0) (fun () ->
        Guard.protect ~deadline:(Guard.deadline_after 60.0) (fun () -> 1))
  in
  check_b "outer expiry wins" true (r = Error Guard.Timeout);
  check_b "ambient restored" true (Guard.ambient_deadline () = Guard.no_deadline)

let test_interpreter_limit_classified () =
  check_b "Limit_exceeded maps into taxonomy" true
    (Guard.protect (fun () -> raise (Pseval.Env.Limit_exceeded "steps"))
    = Error (Guard.Interpreter_limit "steps"))

let test_oom_classified () =
  (* memory exhaustion gets its own taxon, distinct from Unexpected *)
  check_b "Out_of_memory contained as Oom" true
    (Guard.protect (fun () -> raise Out_of_memory) = Error Guard.Oom);
  check_b "oom label" true (Guard.failure_label Guard.Oom = "out-of-memory")

(* ---------- adversarial engine inputs ---------- *)

let deep_nesting n =
  String.concat ""
    [ String.concat "" (List.init n (fun _ -> "(")); "1";
      String.concat "" (List.init n (fun _ -> ")")) ]

let test_deep_nesting_total () =
  (* 30k nesting levels blow a fixed-size recursive-descent stack; on
     OCaml 5's growable stacks the pipeline instead simplifies the tower to
     its payload.  Either way run_guarded must be total: a clean simplified
     result, or a structured parse/stack failure with the input unchanged *)
  let src = deep_nesting 30_000 in
  let guarded = Deobf.Engine.run_guarded ~timeout_s:30.0 src in
  let output = guarded.Deobf.Engine.result.Deobf.Engine.output in
  match guarded.Deobf.Engine.failures with
  | [] -> check_b "tower simplified" true (String.trim output = "1")
  | failures ->
      check_b "input returned unchanged" true (String.equal output src);
      List.iter
        (fun (site : Deobf.Engine.failure_site) ->
          check_b "taxonomy is parse/stack/timeout" true
            (match site.failure with
            | Guard.Parse_failure | Guard.Stack_exhausted | Guard.Timeout ->
                true
            | _ -> false))
        failures

(* A piece, the dynamic stage and the verify gate each run under the step
   budget of the text they execute, which grows 40 steps per byte
   ({!Pseval.Env.step_budget}): [steps_pad n] is a comment that buys the
   text it pads [n] more steps. *)
let steps_pad n = "<#" ^ String.make (n / 40) 'p' ^ "#>"

(* the evaluator runs some 60M steps a second: 160M steps per second of
   deadline leave a bomb to the wall clock *)
let wall_clock_pad ~timeout_s =
  steps_pad (int_of_float (timeout_s *. 160e6))

(* an infinite decode-style loop whose piece is padded to outlast
   [timeout_s]; it must be variable-free, because a piece reading (or even
   assigning) an untraced variable is never invoked *)
let decode_bomb ~timeout_s =
  Printf.sprintf "$x = $(while (1 -lt 2) { 1 }%s; 'done')"
    (wall_clock_pad ~timeout_s)

let test_decode_bomb_deadline () =
  let timeout_s = 0.4 in
  let started = Guard.now () in
  let guarded =
    Deobf.Engine.run_guarded ~timeout_s (decode_bomb ~timeout_s)
  in
  let elapsed = Guard.now () -. started in
  check_b "timeout recorded" true
    (List.exists
       (fun (s : Deobf.Engine.failure_site) -> s.failure = Guard.Timeout)
       guarded.Deobf.Engine.failures);
  check_b "deadline respected within tolerance" true (elapsed < timeout_s +. 2.0)

let test_string_bomb_capped () =
  (* exponential string growth must stop at max_string_bytes, on steps, or on
     the deadline — contained either way; the padding buys the steps to
     reach max_string_bytes *)
  let src =
    Printf.sprintf
      "$s = 'aaaaaaaa'; $r = $(foreach ($i in 1..64) { $s = $s + $s }%s; $s)"
      (steps_pad 20_000_000)
  in
  let guarded = Deobf.Engine.run_guarded ~timeout_s:5.0 src in
  check_b "output bounded" true
    (String.length guarded.Deobf.Engine.result.Deobf.Engine.output
    <= 32 * 1024 * 1024)

let prop_random_bytes_total =
  QCheck.Test.make ~name:"guard: run_guarded total on random bytes" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 120))
    (fun s ->
      let guarded = Deobf.Engine.run_guarded ~timeout_s:10.0 s in
      (* a structured verdict either way: clean run, partial-parse recovery
         of at least one region, or unchanged input with recorded failure *)
      guarded.Deobf.Engine.failures = []
      || guarded.Deobf.Engine.regions_recovered >= 1
      || String.equal guarded.Deobf.Engine.result.Deobf.Engine.output s)

let prop_mutants_total =
  QCheck.Test.make ~name:"guard: run_guarded total on obfuscated mutants"
    ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (seed, layers) ->
      let rng = Rng.of_int (seed + 1) in
      let src =
        Obfuscator.Obfuscate.multilayer rng
          ((layers mod 3) + 1)
          "Write-Host 'payload'; $u = 'http://example.com/a.ps1'"
      in
      let guarded = Deobf.Engine.run_guarded ~timeout_s:20.0 src in
      String.length guarded.Deobf.Engine.result.Deobf.Engine.output >= 0)

(* ---------- degradation boundaries ---------- *)

(* [depth] Invoke-Expression layers around [inner], each a base64 decode *)
let iex_nest depth inner =
  let rec go n text =
    if n = 0 then text
    else
      go (n - 1)
        (Printf.sprintf
           "iex ([Text.Encoding]::UTF8.GetString(\
            [Convert]::FromBase64String('%s')))"
           (Encoding.Base64.encode text))
  in
  go depth inner

let test_max_depth_boundary () =
  (* one pass recurses at most 16 layers deep; the next pass starts again
     at depth 0, so a deeper nest still comes off layer by layer *)
  List.iter
    (fun depth ->
      let r, out = Pipeline.run (iex_nest depth "Write-Host 'deep'") in
      check_i
        (Printf.sprintf "%d layers unwrapped" depth)
        depth r.Deobf.Batch.stats.Deobf.Recover.layers_unwrapped;
      check_s "innermost payload recovered" "Write-Host 'deep'\n" out)
    [ 1; 16; 17 ];
  let no_multilayer =
    { Deobf.Engine.default_options with
      recovery = { Deobf.Recover.default_options with use_multilayer = false } }
  in
  let r, _ =
    Pipeline.run ~options:no_multilayer (iex_nest 3 "Write-Host 'deep'")
  in
  check_i "multilayer off unwraps nothing" 0
    r.Deobf.Batch.stats.Deobf.Recover.layers_unwrapped

let test_budget_exhaustion_partial () =
  (* a piece that exhausts its step budget degrades to kept-obfuscated, but
     the run still completes and reports the attempts *)
  let rng = Rng.of_int 11 in
  let src =
    Obfuscator.Obfuscate.multilayer rng 2 "Write-Host 'x'"
    ^ "\n$y = $(while (1 -lt 2) { 1 })\n"
  in
  let guarded = Deobf.Engine.run_guarded ~timeout_s:20.0 src in
  let output = guarded.Deobf.Engine.result.Deobf.Engine.output in
  check_b "run completes" true (String.length output > 0);
  check_b "starved piece kept" true (Strcase.contains ~needle:"while" output);
  check_b "pieces were attempted" true
    (guarded.Deobf.Engine.result.Deobf.Engine.stats.Deobf.Recover.pieces_attempted
    >= 1)

(* ---------- satellite regressions ---------- *)

let test_iterations_actual_count () =
  (* a trivial script converges far below the fixpoint bound; the result
     must report the actual pass count, not max_iterations *)
  let r, _ = Pipeline.run "Write-Host 'hello'" in
  check_b "iterations >= 1" true (r.Deobf.Batch.iterations >= 1);
  check_b "iterations below bound" true
    (r.Deobf.Batch.iterations
    < Deobf.Engine.default_options.Deobf.Engine.max_iterations)

let test_write_error_renamed () =
  (* "-e" appearing as command text (Write-Error) must not trip the
     residual-encoded check: decided on tokens, not substrings *)
  let out = Pipeline.output "$qzxwvjkp = 'v'; Write-Error $qzxwvjkp" in
  check_b "pipeline ran to completion" true
    (Psparse.Parser.is_valid_syntax out)

let test_run_phases_consistent () =
  (* the staged view is read off the run that ships: a dynamic-stage
     sample's final phase is what the pipeline emits *)
  let dynamic =
    (List.hd (Corpus.Generator.generate_dynamic ~seed:74 ~count:1))
      .Corpus.Generator.obfuscated
  in
  List.iter
    (fun src ->
      let phases = Deobf.Engine.run_phases src in
      check_i "four phases" 4 (List.length phases);
      let final = List.nth phases 3 in
      check_s "final phase equals run output" (Pipeline.output src)
        final.Deobf.Engine.text)
    [ "$a = ('Wr'+'ite'+'-Host'); & $a 'hi'"; dynamic ]

(* ---------- sandbox containment ---------- *)

let test_sandbox_contained () =
  let report =
    Guard.within (Guard.deadline_after 0.4) (fun () ->
        Sandbox.run ~max_steps:max_int "while (1 -lt 2) { $z = 1 }")
  in
  check_b "sandbox contains the hang" true (report.Sandbox.error <> None)

let test_sandbox_deep_nesting () =
  (* totality: either the tower evaluates cleanly or the failure is
     contained in the report — never an escaping exception *)
  let report = Sandbox.run (deep_nesting 30_000) in
  check_b "sandbox survives deep nesting" true
    (match (report.Sandbox.error, report.Sandbox.failure) with
    | None, None -> report.Sandbox.output <> []
    | _ -> true)

(* ---------- crash-isolated batch ---------- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "guard-batch-%d" (Unix.getpid ()))
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

let write path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let test_batch_isolates_hanging_sample () =
  with_temp_dir (fun dir ->
      let in_dir = Filename.concat dir "in" in
      let out_dir = Filename.concat dir "out" in
      Sys.mkdir in_dir 0o755;
      write (Filename.concat in_dir "a_clean.ps1") "Write-Host 'hello'";
      write (Filename.concat in_dir "b_bomb.ps1") (decode_bomb ~timeout_s:2.0);
      write (Filename.concat in_dir "c_deep.ps1") (deep_nesting 30_000);
      let started = Guard.now () in
      let summary = Deobf.Batch.run_dir ~timeout_s:2.0 ~out_dir in_dir in
      let elapsed = Guard.now () -. started in
      check_i "all files processed" 3 summary.Deobf.Batch.total;
      check_b "batch not stalled by the bomb" true (elapsed < 15.0);
      let outcome name =
        List.find
          (fun (o : Deobf.Batch.outcome) ->
            Filename.basename o.Deobf.Batch.file = name)
          summary.Deobf.Batch.outcomes
      in
      check_b "clean sample ran clean" true
        ((outcome "a_clean.ps1").Deobf.Batch.failures = []);
      check_b "bomb contained by its deadline" true
        (List.exists
           (fun (s : Deobf.Engine.failure_site) -> s.failure = Guard.Timeout)
           (outcome "b_bomb.ps1").Deobf.Batch.failures);
      check_b "deep sample processed after the bomb" true
        (String.length (outcome "c_deep.ps1").Deobf.Batch.file > 0);
      check_b "recovered scripts written" true
        (Sys.file_exists (Filename.concat out_dir "a_clean.ps1"));
      check_b "per-file failure report written" true
        (Sys.file_exists (Filename.concat out_dir "b_bomb.ps1.failures.json"));
      check_b "batch report written" true
        (Sys.file_exists (Filename.concat out_dir "batch_report.json"));
      let report_json =
        In_channel.with_open_bin
          (Filename.concat out_dir "batch_report.json")
          In_channel.input_all
      in
      check_b "report carries the taxonomy" true
        (Strcase.contains ~needle:"\"timeout\"" report_json);
      check_b "report carries wall time" true
        (Strcase.contains ~needle:"\"wall_ms\"" report_json))

let test_batch_unreadable_file () =
  let summary = Deobf.Batch.run_files [ "/nonexistent/guard-test.ps1" ] in
  check_i "one outcome" 1 summary.Deobf.Batch.total;
  check_i "recorded as degraded" 1 summary.Deobf.Batch.degraded

let suite =
  [
    Alcotest.test_case "protect value" `Quick test_protect_value;
    Alcotest.test_case "protect stack overflow" `Quick test_protect_stack_overflow;
    Alcotest.test_case "protect stray exception" `Quick test_protect_stray_exception;
    Alcotest.test_case "protect expired deadline" `Quick test_protect_expired_deadline;
    Alcotest.test_case "protect output cap" `Quick test_protect_output_cap;
    Alcotest.test_case "protect nests ambient" `Quick test_protect_nests_ambient;
    Alcotest.test_case "interpreter limit classified" `Quick
      test_interpreter_limit_classified;
    Alcotest.test_case "oom classified" `Quick test_oom_classified;
    Alcotest.test_case "deep nesting total" `Quick test_deep_nesting_total;
    Alcotest.test_case "decode bomb deadline" `Quick test_decode_bomb_deadline;
    Alcotest.test_case "string bomb capped" `Quick test_string_bomb_capped;
    QCheck_alcotest.to_alcotest prop_random_bytes_total;
    QCheck_alcotest.to_alcotest prop_mutants_total;
    Alcotest.test_case "max_depth boundary" `Quick test_max_depth_boundary;
    Alcotest.test_case "budget exhaustion partial" `Quick
      test_budget_exhaustion_partial;
    Alcotest.test_case "iterations actual count" `Quick test_iterations_actual_count;
    Alcotest.test_case "write-error renamed" `Quick test_write_error_renamed;
    Alcotest.test_case "run_phases consistent" `Quick test_run_phases_consistent;
    Alcotest.test_case "sandbox contained" `Quick test_sandbox_contained;
    Alcotest.test_case "sandbox deep nesting" `Quick test_sandbox_deep_nesting;
    Alcotest.test_case "batch isolates hanging sample" `Quick
      test_batch_isolates_hanging_sample;
    Alcotest.test_case "batch unreadable file" `Quick test_batch_unreadable_file;
  ]
