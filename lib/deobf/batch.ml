(** Crash-isolated batch processing over a directory of samples, in
    parallel across a fixed-size domain pool. *)

module Guard = Pscommon.Guard
module Pool = Pscommon.Pool
module T = Pscommon.Telemetry
module Chaos = Pscommon.Chaos

type outcome = {
  file : string;
  output_file : string option;
  wall_ms : float;
  phase_ms : (string * float) list;
  iterations : int;
  changed : bool;
  failures : Engine.failure_site list;
  stats : Recover.stats;
  retries : int;
  regions_total : int;
  regions_recovered : int;
  verdict : Verify.verdict option;
  resumed : bool;
}

type summary = {
  total : int;
  clean : int;
  degraded : int;
  wall_ms : float;
  jobs_requested : int;
  jobs_effective : int;
  cache_stats : Recover.Cache.stats option;
  outcomes : outcome list;
}

(* ---------- JSON rendering (reuses Report's dependency-free helpers) ---------- *)

let failure_to_json (site : Engine.failure_site) =
  Printf.sprintf "{\"phase\": %s, \"kind\": %s, \"detail\": %s}"
    (T.json_string site.Engine.phase)
    (T.json_string (Guard.failure_label site.Engine.failure))
    (T.json_string (Guard.failure_to_string site.Engine.failure))

let stats_to_json (s : Recover.stats) =
  Printf.sprintf
    "{\"pieces_recovered\": %d, \"variables_substituted\": %d, \
     \"layers_unwrapped\": %d, \"pieces_attempted\": %d, \
     \"pieces_blocked\": %d, \"cache_hits\": %d, \
     \"dynamic_attempted\": %d, \"dynamic_recovered\": %d, \
     \"dynamic_unverifiable\": %d}"
    s.Recover.pieces_recovered s.Recover.variables_substituted
    s.Recover.layers_unwrapped s.Recover.pieces_attempted
    s.Recover.pieces_blocked s.Recover.cache_hits s.Recover.dynamic_attempted
    s.Recover.dynamic_recovered s.Recover.dynamic_unverifiable

let phase_ms_to_json phases =
  Printf.sprintf "{%s}"
    (String.concat ", "
       (List.map
          (fun (phase, ms) ->
            Printf.sprintf "%s: %.1f" (T.json_string phase) ms)
          phases))

let outcome_to_json o =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"file\": %s," (T.json_string o.file);
      Printf.sprintf "  \"status\": %s,"
        (T.json_string (if o.failures = [] then "ok" else "degraded"));
      Printf.sprintf "  \"wall_ms\": %.1f," o.wall_ms;
      Printf.sprintf "  \"phase_ms\": %s," (phase_ms_to_json o.phase_ms);
      Printf.sprintf "  \"iterations\": %d," o.iterations;
      Printf.sprintf "  \"changed\": %b," o.changed;
      Printf.sprintf "  \"verdict\": %s,"
        (match o.verdict with
        | None -> "null"
        | Some v -> T.json_string (Verify.verdict_name v));
      Printf.sprintf "  \"verdict_detail\": %s,"
        (match Option.bind o.verdict Verify.verdict_detail with
        | None -> "null"
        | Some d -> T.json_string d);
      Printf.sprintf "  \"resumed\": %b," o.resumed;
      Printf.sprintf "  \"regions_total\": %d," o.regions_total;
      Printf.sprintf "  \"regions_recovered\": %d," o.regions_recovered;
      Printf.sprintf "  \"failures\": [%s],"
        (String.concat ", " (List.map failure_to_json o.failures));
      Printf.sprintf "  \"stats\": %s," (stats_to_json o.stats);
      Printf.sprintf "  \"output_file\": %s"
        (match o.output_file with
        | Some p -> T.json_string p
        | None -> "null");
      "}";
    ]

let summary_to_json s =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"total\": %d," s.total;
      Printf.sprintf "  \"clean\": %d," s.clean;
      Printf.sprintf "  \"degraded\": %d," s.degraded;
      Printf.sprintf "  \"wall_ms\": %.1f," s.wall_ms;
      Printf.sprintf "  \"jobs_requested\": %d," s.jobs_requested;
      Printf.sprintf "  \"jobs_effective\": %d," s.jobs_effective;
      Printf.sprintf "  \"outcomes\": [\n%s\n  ]"
        (String.concat ",\n" (List.map outcome_to_json s.outcomes));
      "}";
    ]

(* ---------- crash-safe resume journal ---------- *)

(* [manifest.jsonl]: one JSON object per line, appended under a lock —
   "started" when a file begins processing, "done" when its outcome is
   decided.  A later [--resume] run skips files whose "done" entry matches
   the current input digest and options fingerprint, was clean, and whose
   output file still exists — an interrupted batch picks up where it died
   without recomputing (or rewriting) anything already produced, so the
   output directory ends up byte-identical to an uninterrupted run. *)

let manifest_name = "manifest.jsonl"

type done_entry = {
  d_digest : string;
  d_options : string;
  d_clean : bool;
  d_changed : bool;
  d_verdict : string option;
  d_detail : string option;
  d_rolled : int;
  d_output : string option;
}

type journal = {
  j_path : string;
  j_lock : Mutex.t;
  j_options : string;  (* fingerprint of this run's options *)
  j_done : (string, done_entry) Hashtbl.t;  (* basename -> last done entry *)
}

(* any knob that can change an output byte or a verdict participates *)
let options_fingerprint ~options ~timeout_s ~max_output_bytes ~verify =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (options, timeout_s, max_output_bytes, verify) []))

(* each manifest line is parsed once ({!Jsonl}); a line that does not
   parse, or lacks a field below, is skipped *)
let journal_load path =
  let tbl = Hashtbl.create 64 in
  let entry fields =
    let get conv k = Option.bind (List.assoc_opt k fields) conv in
    let str = get Jsonl.to_string and flag k = get Jsonl.to_bool k = Some true in
    match (str "status", str "file", str "digest", str "options") with
    | Some "done", Some f, Some d, Some o ->
        (* replace: the last entry for a file wins *)
        Hashtbl.replace tbl f
          { d_digest = d; d_options = o;
            d_clean = flag "clean"; d_changed = flag "changed";
            d_verdict = str "verdict"; d_detail = str "verdict_detail";
            d_rolled = Option.value ~default:0 (get Jsonl.to_int "rolled_back");
            d_output = str "output_file" }
    | _ -> ()
  in
  (match
     Guard.protect (fun () ->
         In_channel.with_open_bin path In_channel.input_all)
   with
  | Error _ -> ()
  | Ok text ->
      List.iter
        (fun line ->
          match Jsonl.parse line with
          | Some (Jsonl.Object fields) -> entry fields
          | _ -> ())
        (String.split_on_char '\n' text));
  tbl

(* direct append, not [write_file]: journaling must not draw chaos probes,
   so injection stays a pure function of the probe sites the real work hits *)
let journal_append j line =
  ignore
    (Guard.protect (fun () ->
         Mutex.lock j.j_lock;
         Fun.protect
           ~finally:(fun () -> Mutex.unlock j.j_lock)
           (fun () ->
             let oc =
               open_out_gen
                 [ Open_wronly; Open_append; Open_creat; Open_binary ]
                 0o644 j.j_path
             in
             Fun.protect
               ~finally:(fun () -> close_out oc)
               (fun () ->
                 output_string oc line;
                 output_char oc '\n'))))

let started_line j ~file ~digest =
  Printf.sprintf
    "{\"status\": \"started\", \"file\": %s, \"digest\": %s, \"options\": %s}"
    (T.json_string file) (T.json_string digest)
    (T.json_string j.j_options)

let outcome_clean o = o.failures = [] && o.verdict <> Some Verify.Diverged

let done_line j ~digest (o : outcome) =
  Printf.sprintf
    "{\"status\": \"done\", \"file\": %s, \"digest\": %s, \"options\": %s, \
     \"clean\": %b, \"changed\": %b, \"verdict\": %s, \"verdict_detail\": \
     %s, \"rolled_back\": %d, \"output_file\": %s}"
    (T.json_string (Filename.basename o.file))
    (T.json_string digest)
    (T.json_string j.j_options)
    (outcome_clean o) o.changed
    (match o.verdict with
    | None -> "null"
    | Some v -> T.json_string (Verify.verdict_name v))
    (match o.verdict with
    | Some (Verify.Unverifiable reason) -> T.json_string reason
    | _ -> "null")
    (match o.verdict with Some (Verify.Rolled_back n) -> n | _ -> 0)
    (match o.output_file with
    | Some p -> T.json_string p
    | None -> "null")

let verdict_of_entry (e : done_entry) =
  match e.d_verdict with
  | Some "equivalent" -> Some Verify.Equivalent
  | Some "rolled_back" -> Some (Verify.Rolled_back e.d_rolled)
  | Some "diverged" -> Some Verify.Diverged
  | Some "unverifiable" ->
      Some (Verify.Unverifiable (Option.value ~default:"" e.d_detail))
  | Some _ | None -> None

let resume_hit journal ~file ~digest =
  match journal with
  | None -> None
  | Some j -> (
      match Hashtbl.find_opt j.j_done (Filename.basename file) with
      | Some e
        when e.d_digest = digest && e.d_options = j.j_options && e.d_clean
             && (match e.d_output with
                | Some p -> Sys.file_exists p
                | None -> true) ->
          Some e
      | _ -> None)

(* ---------- per-file isolation ---------- *)

let write_file path content =
  Chaos.probe "batch.write";
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let default_timeout_s = 30.0

(* The shared request core: everything between "we have source text" and
   "we have an outcome plus output text".  Batch file processing and the
   serve daemon both go through it, so a service request runs the same
   guarded engine and semantic gate as a batch file — one hardening path,
   two transports.  The engine runs once, under one deadline: a phase that
   fails is skipped and the best text the earlier phases validated is
   kept, so there is nothing for a second attempt to add.  The semantic
   gate runs under the same deadline, its rollback re-runs included
   ({!Verify.run_guarded}). *)
let run_source ?options ?(timeout_s = default_timeout_s) ?max_output_bytes ?cache
    ?(verify = false) ~name src =
  let started = Guard.now () in
  (* quarantine scope: admission decisions (which rules may run) are fixed
     for the whole request — including the gate's rollback re-runs — and
     the verdict's rolled-back rule names feed the breakers when the scope
     closes.  No-op while disabled. *)
  Quarantine.begin_request ();
  match
    if not verify then
      ( Engine.run_guarded ?options ?cache ~timeout_s ?max_output_bytes src,
        None,
        [] )
    else
      let g, o =
        Verify.run_guarded ?options ?cache ~timeout_s ?max_output_bytes src
      in
      (g, Some o.Verify.verdict, o.Verify.rolled_rules)
  with
  | exception e ->
      Quarantine.abort_request ();
      raise e
  | guarded, verdict, rolled_rules ->
  Quarantine.end_request ~rolled_rules;
  (* a diverged verdict is exactly the situation the flight recorder
     exists for: the spans of the run whose semantics the gate rejected *)
  (match verdict with
  | Some Verify.Diverged ->
      ignore (T.Flight.dump ~reason:"verify-diverged" ())
  | _ -> ());
  let result = guarded.Engine.result in
  ( { file = name; output_file = None;
      wall_ms = (Guard.now () -. started) *. 1000.0;
      phase_ms = guarded.Engine.timings;
      iterations = result.Engine.iterations; changed = result.Engine.changed;
      failures = guarded.Engine.failures; stats = result.Engine.stats;
      retries = 0;
      regions_total = guarded.Engine.regions_total;
      regions_recovered = guarded.Engine.regions_recovered;
      verdict; resumed = false },
    result.Engine.output )

(* the outcome of a file no engine run stands behind: nothing recovered,
   only its failure sites on record *)
let zero_outcome ?(wall_ms = 0.0) file failures =
  { file; output_file = None; wall_ms; phase_ms = []; iterations = 0;
    changed = false; failures; stats = Recover.new_stats (); retries = 0;
    regions_total = 0; regions_recovered = 0; verdict = None;
    resumed = false }

let process_file_inner ?options ?timeout_s ?max_output_bytes ?cache
    ?out_dir ?(verify = false) ?journal file =
  let started = Guard.now () in
  let elapsed_ms () = (Guard.now () -. started) *. 1000.0 in
  match
    Guard.protect (fun () ->
        Chaos.probe "batch.read";
        In_channel.with_open_bin file In_channel.input_all)
  with
  | Error failure ->
      zero_outcome ~wall_ms:(elapsed_ms ()) file
        [ { Engine.phase = "read"; failure } ]
  | Ok src -> (
      let digest = Digest.to_hex (Digest.string src) in
      match resume_hit journal ~file ~digest with
      | Some e ->
          (* journaled clean result with matching input and options, output
             still on disk: keep it, byte for byte *)
          T.Metrics.incr (T.Metrics.counter "batch.resume.skipped");
          { (zero_outcome ~wall_ms:(elapsed_ms ()) file []) with
            output_file = e.d_output; changed = e.d_changed;
            verdict = verdict_of_entry e; resumed = true }
      | None ->
      Option.iter
        (fun j ->
          journal_append j (started_line j ~file:(Filename.basename file) ~digest))
        journal;
      (* the guarded engine is total; the outer protect is the backstop for
         anything outside it (e.g. report writing) *)
      let core, output =
        run_source ?options ?timeout_s ?max_output_bytes ?cache ~verify
          ~name:file src
      in
      let output_file, write_failure =
        match out_dir with
        | None -> (None, None)
        | Some dir -> (
            let path = Filename.concat dir (Filename.basename file) in
            match Guard.protect (fun () -> write_file path output) with
            | Ok () -> (Some path, None)
            | Error failure ->
                (* a failed write is a real degradation — surfaced as a
                   structured site, not a silent [None] *)
                (None, Some { Engine.phase = "write"; failure }))
      in
      let outcome =
        { core with
          output_file;
          failures = core.failures @ Option.to_list write_failure;
          (* re-measured here so the file outcome also covers read + write *)
          wall_ms = elapsed_ms () }
      in
      Option.iter (fun j -> journal_append j (done_line j ~digest outcome)) journal;
      (match (out_dir, outcome.failures) with
      | Some dir, _ :: _ ->
          let report_path =
            Filename.concat dir (Filename.basename file ^ ".failures.json")
          in
          ignore
            (Guard.protect (fun () ->
                 write_file report_path (outcome_to_json outcome ^ "\n")))
      | _ -> ());
      outcome)

let process_file ?options ?timeout_s ?max_output_bytes ?cache ?out_dir
    ?trace_dir ?verify ?journal file =
  (* Scope the chaos stream to the file: injection becomes a pure function
     of (seed, basename, probe order), so a file draws the same faults no
     matter which pool domain ran it or in what order — outputs under
     injection stay byte-identical across --jobs levels.  Traced runs draw
     one extra probe (the trace write), but only after the output is
     already decided, so traced/untraced byte-identity holds too. *)
  Chaos.with_scope (Filename.basename file) @@ fun () ->
  (* one request scope per input file: a trace id, and — when the file is
     traced or the flight recorder is on — the domain's event ring, reset
     for this file.  Observation only: the id draws from a process counter,
     never the chaos stream, so outputs stay byte-identical across --jobs
     levels. *)
  T.with_request_id ~record:(trace_dir <> None) (T.new_trace_id ()) @@ fun () ->
  let task () =
    (* the "pool.task" probe models a fault in the worker itself, outside
       every engine guard; the protect in [contained] below is what keeps
       it from crashing the pool *)
    Chaos.probe "pool.task";
    let run () =
      process_file_inner ?options ?timeout_s ?max_output_bytes ?cache ?out_dir
        ?verify ?journal file
    in
    match (trace_dir, T.current_trace ()) with
    | Some dir, Some trace ->
        (* one trace file per input, next to the other per-file reports;
           untraced files get no root span, so a flight dump taken inside
           one holds closed spans only *)
        let outcome =
          T.span ~attrs:[ ("file", T.S file) ] "batch.file" run
        in
        let path = Filename.concat dir (Filename.basename file ^ ".trace.jsonl") in
        ignore (Guard.protect (fun () -> write_file path (T.to_jsonl trace)));
        outcome
    | _ -> run ()
  in
  (* backstop: Pool.map re-raises worker exceptions at join, so anything
     escaping the per-file pipeline (an injected pool fault, a bug in
     report writing) must be converted here into a structured outcome
     rather than aborting the whole batch *)
  match Guard.protect task with
  | Ok outcome -> outcome
  | Error failure ->
      (* black box before the structured outcome: whatever the domain's
         ring holds about this file is reset by the next one *)
      ignore
        (T.Flight.dump
           ~reason:("pool.task/" ^ Guard.failure_label failure)
           ());
      zero_outcome file [ { Engine.phase = "task"; failure } ]

(* mkdir -p semantics: creates missing ancestors, accepts an existing
   directory, and fails when any component exists as a non-directory. *)
let rec ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      failwith (Printf.sprintf "not a directory: %s" dir)
  end
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then ensure_dir parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir ->
      (* lost a race to a sibling worker creating the same directory *)
      ()
  end

let trace_sampled trace_sample i =
  match trace_sample with Some n when n > 1 -> i mod n = 0 | _ -> true

let run_files ?options ?timeout_s ?max_output_bytes ?out_dir ?trace_dir
    ?trace_sample ?(jobs = 1) ?(verify = true) ?(resume = false)
    files =
  let started = Guard.now () in
  (* more domains than cores only adds scheduler churn (and, on a small
     machine, cold caches); the requested level is still reported so the
     clamp is visible in the summary *)
  let jobs_effective = max 1 (min jobs (Pool.recommended_jobs ())) in
  (* the process-global metrics registry becomes a per-run rollup: zeroed
     here, aggregated across every pool domain, snapshotted by metrics_json *)
  T.Metrics.reset ();
  let ensure_failure = function
    | None -> None
    | Some dir -> (
        match Guard.protect (fun () -> ensure_dir dir) with
        | Ok () -> None
        | Error failure -> Some { Engine.phase = "write"; failure })
  in
  let dir_failure =
    match ensure_failure out_dir with
    | Some site -> Some site
    | None -> ensure_failure trace_dir
  in
  (* the journal lives next to the outputs; without an output directory
     there is nothing durable to resume onto *)
  let journal =
    match (out_dir, dir_failure) with
    | Some dir, None ->
        let path = Filename.concat dir manifest_name in
        let j_done =
          if resume then journal_load path
          else begin
            (* a fresh run starts a fresh journal *)
            ignore
              (Guard.protect (fun () ->
                   Out_channel.with_open_bin path (fun _ -> ())));
            Hashtbl.create 1
          end
        in
        Some
          { j_path = path; j_lock = Mutex.create ();
            j_options =
              options_fingerprint ~options ~timeout_s ~max_output_bytes
                ~verify;
            j_done }
    | _ -> None
  in
  (* one content-addressed piece cache for the whole run, shared by every
     pool domain *)
  let cache = Recover.Cache.create () in
  let outcomes =
    match dir_failure with
    | Some site ->
        (* the output directory is unusable: report every file as a
           structured write failure instead of crashing or silently
           dropping the outputs *)
        List.map (fun file -> zero_outcome file [ site ]) files
    | None ->
        (* outcomes come back input-ordered regardless of which domain ran
           which file, so reports and outputs are deterministic — and so is
           trace sampling, which keys on the input index, not on which
           domain or in what order a file happened to run; an unsampled
           file runs untraced *)
        Pool.map ~jobs:jobs_effective
          (fun (i, file) ->
            let trace_dir =
              if trace_sampled trace_sample i then trace_dir else None
            in
            process_file ?options ?timeout_s ?max_output_bytes ~cache
              ?out_dir ?trace_dir ~verify ?journal file)
          (List.mapi (fun i file -> (i, file)) files)
  in
  let clean = List.length (List.filter (fun o -> o.failures = []) outcomes) in
  {
    total = List.length outcomes;
    clean;
    degraded = List.length outcomes - clean;
    wall_ms = (Guard.now () -. started) *. 1000.0;
    jobs_requested = jobs;
    jobs_effective;
    cache_stats = Some (Recover.Cache.stats cache);
    outcomes;
  }

(* ---------- run-level metrics rollup ---------- *)

(* the run's per-file stats, summed *)
let total_stats outcomes =
  let open Recover in
  let t = new_stats () in
  List.iter
    (fun o ->
      let s = o.stats in
      t.pieces_recovered <- t.pieces_recovered + s.pieces_recovered;
      t.variables_substituted <- t.variables_substituted + s.variables_substituted;
      t.layers_unwrapped <- t.layers_unwrapped + s.layers_unwrapped;
      t.pieces_attempted <- t.pieces_attempted + s.pieces_attempted;
      t.pieces_blocked <- t.pieces_blocked + s.pieces_blocked;
      t.cache_hits <- t.cache_hits + s.cache_hits;
      t.edits_recorded <- t.edits_recorded + s.edits_recorded;
      t.dynamic_attempted <- t.dynamic_attempted + s.dynamic_attempted;
      t.dynamic_recovered <- t.dynamic_recovered + s.dynamic_recovered;
      t.dynamic_unverifiable <- t.dynamic_unverifiable + s.dynamic_unverifiable)
    outcomes;
  t

(* The cache, dynamic-funnel and self-heal blocks have one renderer each,
   shared by metrics.json, the serve [metrics] op and the CLI's --summary,
   so the three surfaces cannot drift apart. *)

(* the shared piece cache's own counts; the hit rate is hits over lookups *)
let cache_json (cs : Recover.Cache.stats) =
  Printf.sprintf
    "{\"entries\": %d, \"lookups\": %d, \"hits\": %d, \"hit_rate\": %.3f, \
     \"evictions\": %d}"
    cs.entries cs.lookups cs.hits
    (if cs.lookups = 0 then 0.0
     else float_of_int cs.hits /. float_of_int cs.lookups)
    cs.evictions

let registry_count name = T.Metrics.counter_value (T.Metrics.counter name)

(* the dynamic-recovery funnel, from the registry (process totals, reset
   per batch run, the gate's re-runs included): regions attempted,
   replaced by provenance-mapped literals, rolled back by the gate, and
   degraded to static-only *)
let dynamic_json () =
  Printf.sprintf
    "{\"attempted\": %d, \"recovered\": %d, \"rolled_back\": %d, \
     \"unverifiable\": %d}"
    (registry_count "recover.dynamic.attempted")
    (registry_count "recover.dynamic.recovered")
    (registry_count "verify.dynamic_rolled_back")
    (registry_count "recover.dynamic.unverifiable")

(* the verify reference runs' Invoke-Expression sites: lookups in the
   request's payload table and payloads reused, the rate being reused
   over lookups *)
let payloads_json () =
  let lookups = registry_count "verify.payload_lookups"
  and reused = registry_count "verify.payloads_reused" in
  Printf.sprintf "{\"lookups\": %d, \"reused\": %d, \"reuse_rate\": %.3f}"
    lookups reused
    (if lookups = 0 then 0.0 else float_of_int reused /. float_of_int lookups)

(* the self-healing plane: worker churn and the rules the adaptive
   quarantine currently distrusts *)
let selfheal_json () =
  Printf.sprintf
    "{\"recycled\": %d, \"wedged\": %d, \
     \"respawns\": %d, \"respawn_failures\": %d, \
     \"quarantine\": {\"enabled\": %b, \"rules\": {%s}}}"
    (registry_count "pool.service.recycled")
    (registry_count "pool.service.wedged")
    (registry_count "pool.service.respawns")
    (registry_count "pool.service.respawn_failures")
    (Quarantine.enabled ())
    (String.concat ", "
       (List.map
          (fun (rule, st) ->
            Printf.sprintf "%s: %s" (T.json_string rule) (T.json_string st))
          (Quarantine.snapshot ())))

let diverged_count s =
  List.length
    (List.filter (fun o -> o.verdict = Some Verify.Diverged) s.outcomes)

let verdict_counts outcomes =
  let count name =
    List.length
      (List.filter
         (fun o ->
           match o.verdict with
           | Some v -> Verify.verdict_name v = name
           | None -> false)
         outcomes)
  in
  [
    ("equivalent", count "equivalent");
    ("rolled_back", count "rolled_back");
    ("diverged", count "diverged");
    ("unverifiable", count "unverifiable");
    ("off", List.length (List.filter (fun o -> o.verdict = None) outcomes));
  ]

(* counts of contained failures keyed "phase/kind", sorted *)
let failure_site_counts outcomes =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun o ->
      List.iter
        (fun (site : Engine.failure_site) ->
          let key =
            site.Engine.phase ^ "/" ^ Guard.failure_label site.Engine.failure
          in
          Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
        o.failures)
    outcomes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let phase_totals outcomes =
  List.fold_left
    (fun acc o ->
      List.fold_left
        (fun acc (phase, ms) ->
          let prev = Option.value ~default:0.0 (List.assoc_opt phase acc) in
          (phase, prev +. ms) :: List.remove_assoc phase acc)
        acc o.phase_ms)
    [] outcomes
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** The run-level observability rollup written as [metrics.json]: failure
    sites, the summed per-file stats, the cache, payload-reuse, dynamic
    and self-heal blocks, per-phase wall totals, and the full metrics
    snapshot (counters, gauges, latency histograms) aggregated across
    every pool domain of the run. *)
let metrics_json s =
  let cs =
    Option.value s.cache_stats
      ~default:
        { Recover.Cache.entries = 0; hits = 0; lookups = 0; evictions = 0 }
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"total\": %d," s.total;
      Printf.sprintf "  \"clean\": %d," s.clean;
      Printf.sprintf "  \"degraded\": %d," s.degraded;
      Printf.sprintf "  \"wall_ms\": %.1f," s.wall_ms;
      Printf.sprintf "  \"failure_sites\": {%s},"
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s: %d" (T.json_string k) n)
              (failure_site_counts s.outcomes)));
      Printf.sprintf "  \"stats\": %s," (stats_to_json (total_stats s.outcomes));
      Printf.sprintf "  \"cache\": %s," (cache_json cs);
      Printf.sprintf "  \"jobs\": {\"requested\": %d, \"effective\": %d},"
        s.jobs_requested s.jobs_effective;
      Printf.sprintf "  \"phase_ms_total\": {%s},"
        (String.concat ", "
           (List.map
              (fun (p, ms) -> Printf.sprintf "%s: %.1f" (T.json_string p) ms)
              (phase_totals s.outcomes)));
      (* the semantic gate's verdict distribution and how much of the run
         was answered from the resume journal *)
      Printf.sprintf "  \"verify\": {%s},"
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s: %d" (T.json_string k) n)
              (verdict_counts s.outcomes)));
      Printf.sprintf "  \"payloads\": %s," (payloads_json ());
      Printf.sprintf "  \"resumed\": %d,"
        (List.length (List.filter (fun o -> o.resumed) s.outcomes));
      Printf.sprintf "  \"dynamic\": %s," (dynamic_json ());
      (* how much text the partial-parse recovery salvaged *)
      Printf.sprintf
        "  \"regions\": {\"total\": %d, \"recovered\": %d},"
        (List.fold_left (fun acc o -> acc + o.regions_total) 0 s.outcomes)
        (List.fold_left (fun acc o -> acc + o.regions_recovered) 0 s.outcomes);
      Printf.sprintf "  \"selfheal\": %s," (selfheal_json ());
      Printf.sprintf "  \"metrics\": %s"
        (T.Metrics.snapshot_to_json (T.Metrics.snapshot ()));
      "}";
    ]

let run_dir ?options ?timeout_s ?max_output_bytes ?out_dir ?trace_dir
    ?trace_sample ?jobs ?verify ?resume dir =
  let files =
    match Guard.protect (fun () -> Sys.readdir dir) with
    | Error _ -> []
    | Ok names ->
        Array.to_list names |> List.sort String.compare
        |> List.map (Filename.concat dir)
        |> List.filter (fun p ->
               match Guard.protect (fun () -> Sys.is_directory p) with
               | Ok is_dir -> not is_dir
               | Error _ -> false)
  in
  let summary =
    run_files ?options ?timeout_s ?max_output_bytes ?out_dir ?trace_dir
      ?trace_sample ?jobs ?verify ?resume files
  in
  (match out_dir with
  | Some out ->
      ignore
        (Guard.protect (fun () ->
             write_file
               (Filename.concat out "batch_report.json")
               (summary_to_json summary ^ "\n")));
      ignore
        (Guard.protect (fun () ->
             write_file
               (Filename.concat out "metrics.json")
               (metrics_json summary ^ "\n")))
  | None -> ());
  summary
