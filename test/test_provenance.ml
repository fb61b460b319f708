(* Tests for the dynamic value-provenance plane: the recorder the
   interpreter stamps variable writes into, the provenance-guided dynamic
   recovery stage built on it, its per-edit rollback granularity under the
   semantic gate, chaos containment at both new probe sites, and the
   determinism/ablation contracts (jobs parallelism, chaos-seed replay,
   --no-dynamic). *)

open Pscommon
module A = Psast.Ast
module P = Pseval.Provenance
module E = Deobf.Engine
module V = Deobf.Verify
module El = Deobf.Editlog
module R = Deobf.Recover

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let parses src =
  match Psparse.Parser.parse src with Ok _ -> true | Error _ -> false

let with_chaos cfg f =
  Chaos.set (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set None) f

let cfg ?(rate = 0.0) ?(site_rates = []) seed = { Chaos.seed; rate; site_rates }

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "provenance-%d" (Unix.getpid ()))
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

(* run [src] in the sandbox with a fresh recorder installed; returns the
   recorder (execution errors fail the test) *)
let record src =
  let prov = P.create () in
  let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox () in
  env.Pseval.Env.provenance <- Some prov;
  (match Pseval.Interp.run_script env src with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "execution failed: %s" e);
  prov

let top_statements src =
  match Psparse.Parser.parse src with
  | Ok { A.node = A.Script_block sb; _ } -> sb.A.sb_statements
  | _ -> Alcotest.fail "parse failed"

(* ---------- recorder correctness ---------- *)

let test_straight_line_provenance () =
  let src = "$a = 'x'\n$b = $a + 'y'" in
  let prov = record src in
  check_b "not poisoned" true (P.poisoned prov = None);
  check_i "two writes" 2 (P.count prov);
  let a = Option.get (P.last_write prov "a") in
  let b = Option.get (P.last_write prov "b") in
  check_s "spelling preserved" "a" a.P.spelled;
  check_b "b depends on a" true (List.mem a.P.id b.P.deps);
  check_b "b written after a" true (b.P.step > a.P.step);
  (* the transitive closure of $b covers both defining lines *)
  let extents = P.defining_extents prov "b" in
  check_i "two defining extents" 2 (List.length extents);
  check_b "case-insensitive lookup" true (P.last_write prov "B" <> None)

let test_loop_provenance () =
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }" in
  let prov = record src in
  let loop =
    match top_statements src with
    | [ _; loop ] -> loop
    | _ -> Alcotest.fail "expected two statements"
  in
  (* one seed write plus three loop-carried writes *)
  let x_writes =
    List.filter (fun r -> r.P.var = "x") (P.records prov)
  in
  check_i "x written four times" 4 (List.length x_writes);
  let last = Option.get (P.last_write prov "x") in
  check_b "final write proven inside the loop" true
    (Extent.contains loop.A.extent last.P.extent);
  let i_last = Option.get (P.last_write prov "i") in
  check_b "loop variable writes recorded inside the loop" true
    (Extent.contains loop.A.extent i_last.P.extent)

let test_conditional_provenance () =
  let src = "$k = 7\nif ($k -lt 5) { $v = 'decoy' } else { $v = 'payload' }" in
  let prov = record src in
  let cond =
    match top_statements src with
    | [ _; cond ] -> cond
    | _ -> Alcotest.fail "expected two statements"
  in
  (* only the taken branch writes: one $k record, one $v record *)
  check_i "one write per binding" 2 (P.count prov);
  let v = Option.get (P.last_write prov "v") in
  check_b "payload write proven inside the conditional" true
    (Extent.contains cond.A.extent v.P.extent);
  let k = Option.get (P.last_write prov "k") in
  check_b "guard write outside the conditional" false
    (Extent.contains cond.A.extent k.P.extent)

let test_recorder_cap_poisons () =
  let prov = P.create ~cap:2 () in
  let e = Extent.make ~start:0 ~stop:1 in
  P.note prov ~var:"a" ~spelled:"a" ~extent:e ~step:1 ~reads:[];
  P.note prov ~var:"b" ~spelled:"b" ~extent:e ~step:2 ~reads:[];
  check_b "under cap: healthy" true (P.poisoned prov = None);
  P.note prov ~var:"c" ~spelled:"c" ~extent:e ~step:3 ~reads:[];
  check_b "over cap: poisoned, not silently dropped" true
    (P.poisoned prov <> None);
  (* poisoning is sticky and note stays total *)
  P.note prov ~var:"d" ~spelled:"d" ~extent:e ~step:4 ~reads:[];
  check_b "still poisoned" true (P.poisoned prov <> None)

let test_read_vars () =
  let src = "$c = $a + $b + $a" in
  match top_statements src with
  | [ { A.node = A.Assignment (_, _, rhs); _ } ] ->
      Alcotest.(check (list string))
        "reads deduplicated and sorted" [ "a"; "b" ] (P.read_vars rhs)
  | _ -> Alcotest.fail "parse shape"

(* ---------- dynamic recovery stage ---------- *)

let test_run_dynamic_recovers_loop () =
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x" in
  let stats = R.new_stats () in
  match R.run_dynamic ~opts:R.default_options ~stats src with
  | None -> Alcotest.fail "expected a dynamic recovery"
  | Some (patched, _) ->
      check_i "one region attempted" 1 stats.R.dynamic_attempted;
      check_i "one region recovered" 1 stats.R.dynamic_recovered;
      check_b "final value substituted" true
        (Strcase.contains ~needle:"'abbb'" patched);
      check_b "loop gone" false (Strcase.contains ~needle:"foreach" patched);
      (* the replacement reproduces ALL net-changed bindings, loop
         variable included, or the effect logs would diverge *)
      check_b "loop variable binding emitted" true
        (Strcase.contains ~needle:"$i = 3" patched)

let test_run_dynamic_effectful_region_unverifiable () =
  (* output inside the loop is an effect a literal assignment cannot
     reproduce — the region must degrade to static-only, untouched *)
  let src = "foreach ($i in 1..3) { Write-Output $i; $x = $i }" in
  let stats = R.new_stats () in
  let r = R.run_dynamic ~opts:R.default_options ~stats src in
  check_b "no edit applied" true (r = None);
  check_i "attempted" 1 stats.R.dynamic_attempted;
  check_i "unverifiable" 1 stats.R.dynamic_unverifiable;
  check_i "not recovered" 0 stats.R.dynamic_recovered

let test_run_dynamic_disabled_is_none () =
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }" in
  let opts = { R.default_options with R.use_dynamic = false } in
  let stats = R.new_stats () in
  check_b "disabled: no result" true (R.run_dynamic ~opts ~stats src = None);
  check_i "disabled: nothing attempted" 0 stats.R.dynamic_attempted

let test_no_dynamic_ablation_equals_static_only () =
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x" in
  let static_opts =
    { E.default_options with
      E.recovery = { E.default_options.E.recovery with E.use_dynamic = false } }
  in
  let ablated = Pipeline.output ~options:static_opts src in
  let full = Pipeline.output src in
  (* ablation keeps the loop (static tracing must not touch loop-carried
     bindings any more); the dynamic stage folds it *)
  check_b "ablated output keeps the loop" true
    (Strcase.contains ~needle:"foreach" ablated);
  check_b "dynamic output folds the loop" true
    (Strcase.contains ~needle:"'abbb'" full);
  (* determinism of both paths *)
  check_s "ablated path deterministic" ablated
    (Pipeline.output ~options:static_opts src);
  check_s "dynamic path deterministic" full (Pipeline.output src)

(* every edit the dynamic stage applies is individually journaled: the
   journal gains exactly one recover/dynamic.* entry per recovered region,
   each individually suppressible *)
let test_dynamic_edits_individually_journaled () =
  let src =
    "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\n\
     $k = 7\nif ($k -lt 5) { $v = 'no' } else { $v = 'yes' }\n\
     Write-Output $x $v"
  in
  let g = E.run_guarded src in
  let dynamic_edits =
    List.filter
      (fun (e : El.edit) ->
        e.El.phase = "recover"
        && String.length e.El.kind >= 8
        && String.sub e.El.kind 0 8 = "dynamic.")
      (Array.to_list (El.flatten g.E.edit_log))
  in
  check_i "both regions journaled separately" 2 (List.length dynamic_edits);
  let kinds = List.map (fun (e : El.edit) -> e.El.kind) dynamic_edits in
  check_b "loop kind present" true (List.mem "dynamic.loop" kinds);
  check_b "conditional kind present" true (List.mem "dynamic.conditional" kinds);
  (* suppressing one dynamic edit rolls back exactly that region *)
  let loop_edit =
    List.find (fun (e : El.edit) -> e.El.kind = "dynamic.loop") dynamic_edits
  in
  let g2 = E.run_guarded ~suppress:[ El.suppress_edit loop_edit ] src in
  let out2 = g2.E.result.E.output in
  check_b "suppressed region back to original" true
    (Strcase.contains ~needle:"foreach" out2);
  check_b "other dynamic region still recovered" true
    (Strcase.contains ~needle:"'yes'" out2
    && not (Strcase.contains ~needle:"-lt" out2))

(* forced-failure variant: a synthetic behaviour-changing edit journaled
   under a recover/dynamic.* rule — the gate must bisect to exactly that
   edit, roll it back, and attribute it via [dynamic_rolled_back] *)
let test_gate_rolls_back_bad_dynamic_edit () =
  let src = "Write-Output ('ke'+'ep'); Write-Output 'safe'" in
  let bad_before = "'safe'" and bad_after = "'EVIL'" in
  let rerun ~suppress =
    let g = E.run_guarded ~suppress src in
    let out = g.E.result.E.output in
    let idx =
      match Strcase.index_opt ~needle:bad_before out with
      | Some i -> i
      | None -> 0
    in
    let extent = Extent.make ~start:idx ~stop:(idx + String.length bad_before) in
    let stage_log = El.create () in
    if
      not
        (El.admits ~suppress ~phase:"recover" ~kind:"dynamic.loop" ~src:out
           ~extent ~after:bad_after)
    then g
    else
      match
        El.land_edits ~log:stage_log ~phase:"recover" ~pass:99 ~src:out
          [ (Patch.edit extent bad_after, "dynamic.loop") ]
      with
      | None -> Alcotest.fail "injected edit did not land"
      | Some (patched, _) ->
          {
            g with
            E.result =
              { g.E.result with
                E.output = patched.Psparse.Parser.text; changed = true };
            edit_log = g.E.edit_log @ El.stages stage_log;
          }
  in
  let g, o = V.gate ~rerun ~src (rerun ~suppress:[]) in
  (match o.V.verdict with
  | V.Rolled_back 1 -> ()
  | v -> Alcotest.failf "expected rolled_back 1, got %s" (V.verdict_name v));
  check_i "attributed as a dynamic rollback" 1 o.V.dynamic_rolled_back;
  Alcotest.(check (list string))
    "rule key is recover.dynamic.loop" [ "recover.dynamic.loop" ]
    o.V.rolled_rules;
  check_b "benign rewrite kept" true
    (Strcase.contains ~needle:"'keep'" g.E.result.E.output)

(* ---------- chaos containment at the new sites ---------- *)

let test_chaos_interp_provenance_contained () =
  (* a recorder fault poisons provenance: the region degrades to
     static-only instead of admitting an unproven substitution — and the
     run never crashes *)
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x" in
  with_chaos (cfg 11 ~site_rates:[ ("interp.provenance", 1.0) ]) (fun () ->
      let g = Chaos.with_scope "provenance-chaos" (fun () -> E.run_guarded src) in
      let out = g.E.result.E.output in
      check_b "output parses" true (parses out);
      check_i "nothing recovered dynamically" 0
        g.E.result.E.stats.R.dynamic_recovered;
      check_b "loop left in place" true (Strcase.contains ~needle:"foreach" out))

let test_chaos_recover_dynamic_contained () =
  (* a fault at the recover.dynamic site escapes the per-candidate handler
     by design and is contained by the engine's dynamic-phase guard: the
     run degrades to the static output with a classified failure site *)
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x" in
  with_chaos (cfg 13 ~site_rates:[ ("recover.dynamic", 1.0) ]) (fun () ->
      (* pin the draw stream: the injected fault kind is a stream draw, and
         the ambient stream's position depends on every probe fired earlier
         in the process — scoping makes the test order-independent *)
      let g = Chaos.with_scope "provenance-chaos" (fun () -> E.run_guarded src) in
      let out = g.E.result.E.output in
      check_b "output parses" true (parses out);
      check_b "loop left in place" true (Strcase.contains ~needle:"foreach" out);
      check_b "failure classified under the dynamic phase" true
        (List.exists
           (fun (s : E.failure_site) -> s.E.phase = "dynamic")
           g.E.failures))

let test_chaos_seed_replay_byte_identical () =
  (* injection is a pure function of (seed, probe order): with dynamic
     recovery on, the same chaos seed replays to the same bytes *)
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x" in
  let run_with seed =
    with_chaos
      (cfg seed ~rate:0.2
         ~site_rates:
           [ ("interp.provenance", 0.5); ("recover.dynamic", 0.5) ])
      (fun () ->
        (* the scope pins the draw stream to (seed, label), exactly as
           batch scopes it per file — without it the ambient domain
           stream keeps its position across runs *)
        Chaos.with_scope "provenance-replay" (fun () ->
            (E.run_guarded src).E.result.E.output))
  in
  List.iter
    (fun seed ->
      check_s
        (Printf.sprintf "seed %d replays identically" seed)
        (run_with seed) (run_with seed))
    [ 3; 17; 59 ]

(* ---------- obfuscator round-trip and parallel identity ---------- *)

let test_dynamic_corpus_recovers_and_verifies () =
  let samples = Corpus.Generator.generate_dynamic ~seed:41 ~count:6 in
  check_i "samples generated" 6 (List.length samples);
  let recovered = ref 0 in
  List.iter
    (fun (s : Corpus.Generator.sample) ->
      check_b "obfuscation fired" true
        (not (String.equal s.Corpus.Generator.clean s.Corpus.Generator.obfuscated));
      let g, o = V.run_guarded s.Corpus.Generator.obfuscated in
      check_s
        (Printf.sprintf "sample %d verdict" s.Corpus.Generator.id)
        "equivalent"
        (V.verdict_name o.V.verdict);
      check_b
        (Printf.sprintf "sample %d dynamic region attempted" s.Corpus.Generator.id)
        true
        (g.E.result.E.stats.R.dynamic_attempted > 0);
      if g.E.result.E.stats.R.dynamic_recovered >= 1 then incr recovered)
    samples;
  check_b
    (Printf.sprintf "majority recovered dynamically (%d of 6)" !recovered)
    true
    (2 * !recovered > 6)

let test_batch_dynamic_jobs_byte_identical () =
  with_temp_dir (fun dir ->
      let in_dir = Filename.concat dir "in" in
      Sys.mkdir in_dir 0o755;
      let files =
        List.map
          (fun (s : Corpus.Generator.sample) ->
            let path =
              Filename.concat in_dir
                (Printf.sprintf "d%04d.ps1" s.Corpus.Generator.id)
            in
            write path s.Corpus.Generator.obfuscated;
            path)
          (Corpus.Generator.generate_dynamic ~seed:77 ~count:8)
      in
      let out1 = Filename.concat dir "out1" in
      let out4 = Filename.concat dir "out4" in
      let s1 =
        Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir:out1 ~jobs:1
          ~verify:true files
      in
      let s4 =
        Deobf.Batch.run_files ~timeout_s:20.0 ~out_dir:out4 ~jobs:4
          ~verify:true files
      in
      check_i "all processed" 8 s1.Deobf.Batch.total;
      check_b "dynamic recovery exercised" true
        (List.exists
           (fun (o : Deobf.Batch.outcome) ->
             o.Deobf.Batch.stats.R.dynamic_recovered > 0)
           s1.Deobf.Batch.outcomes);
      List.iter2
        (fun (a : Deobf.Batch.outcome) (b : Deobf.Batch.outcome) ->
          check_s "same verdict across jobs"
            (match a.Deobf.Batch.verdict with
            | Some v -> V.verdict_name v
            | None -> "off")
            (match b.Deobf.Batch.verdict with
            | Some v -> V.verdict_name v
            | None -> "off"))
        s1.Deobf.Batch.outcomes s4.Deobf.Batch.outcomes;
      List.iter
        (fun file ->
          let base = Filename.basename file in
          check_s
            (Printf.sprintf "%s identical across jobs" base)
            (read (Filename.concat out1 base))
            (read (Filename.concat out4 base)))
        files)

(* ---------- properties ---------- *)

(* totality: byte-mutated dynamic samples never crash the engine, with the
   dynamic stage on *)
let prop_mutated_dynamic_input_total =
  QCheck.Test.make ~name:"provenance: engine total on mutated dynamic input"
    ~count:40
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, cut_a, cut_b) ->
      match Corpus.Generator.generate_dynamic ~seed:(seed + 1) ~count:1 with
      | [ s ] -> (
          let ob = s.Corpus.Generator.obfuscated in
          let n = String.length ob in
          let a = cut_a mod (n + 1) and b = cut_b mod (n + 1) in
          let lo = min a b and hi = max a b in
          let mutated = String.sub ob 0 lo ^ String.sub ob hi (n - hi) in
          match Pipeline.run mutated with _ -> true | exception _ -> false)
      | _ -> false)

let suite =
  [
    Alcotest.test_case "recorder: straight-line provenance" `Quick
      test_straight_line_provenance;
    Alcotest.test_case "recorder: loop-carried writes proven in loop" `Quick
      test_loop_provenance;
    Alcotest.test_case "recorder: conditional writes proven in branch" `Quick
      test_conditional_provenance;
    Alcotest.test_case "recorder: cap overflow poisons" `Quick
      test_recorder_cap_poisons;
    Alcotest.test_case "recorder: read_vars" `Quick test_read_vars;
    Alcotest.test_case "dynamic: recovers loop-built value" `Quick
      test_run_dynamic_recovers_loop;
    Alcotest.test_case "dynamic: effectful region unverifiable" `Quick
      test_run_dynamic_effectful_region_unverifiable;
    Alcotest.test_case "dynamic: disabled returns nothing" `Quick
      test_run_dynamic_disabled_is_none;
    Alcotest.test_case "dynamic: --no-dynamic ablation is static-only" `Quick
      test_no_dynamic_ablation_equals_static_only;
    Alcotest.test_case "dynamic: edits individually journaled/suppressible"
      `Quick test_dynamic_edits_individually_journaled;
    Alcotest.test_case "gate: bad dynamic edit rolled back and attributed"
      `Quick test_gate_rolls_back_bad_dynamic_edit;
    Alcotest.test_case "chaos: interp.provenance contained" `Quick
      test_chaos_interp_provenance_contained;
    Alcotest.test_case "chaos: recover.dynamic contained" `Quick
      test_chaos_recover_dynamic_contained;
    Alcotest.test_case "chaos: seed replay byte-identical" `Quick
      test_chaos_seed_replay_byte_identical;
    Alcotest.test_case "corpus: dynamic samples recover and verify" `Slow
      test_dynamic_corpus_recovers_and_verifies;
    Alcotest.test_case "batch: dynamic corpus jobs=4 byte-identical" `Slow
      test_batch_dynamic_jobs_byte_identical;
    QCheck_alcotest.to_alcotest prop_mutated_dynamic_input_total;
  ]
