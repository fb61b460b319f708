(** Crash-isolated batch processing over a directory of samples, in
    parallel across a fixed-size domain pool. *)

module Guard = Pscommon.Guard
module Pool = Pscommon.Pool
module T = Pscommon.Telemetry
module Chaos = Pscommon.Chaos

(* ---------- the degraded-mode retry ladder ---------- *)

type mode = Full | Static | Token_only | Passthrough

let mode_name = function
  | Full -> "full"
  | Static -> "static"
  | Token_only -> "token-only"
  | Passthrough -> "passthrough"

let weaker = function
  | Full -> Some Static
  | Static -> Some Token_only
  | Token_only -> Some Passthrough
  | Passthrough -> None

(* each rung strips the pipeline further: Static drops piece execution and
   the provenance-guided dynamic phase (the latter runs outside the fixpoint,
   so max_iterations = 0 alone would not strip it), Token_only additionally
   drops renaming and reformatting, Passthrough does not run the engine at
   all *)
let mode_options base = function
  | Full | Passthrough -> base
  | Static ->
      { base with
        Engine.max_iterations = 0;
        recovery = { base.Engine.recovery with Engine.use_dynamic = false } }
  | Token_only ->
      { base with
        Engine.max_iterations = 0;
        recovery = { base.Engine.recovery with Engine.use_dynamic = false };
        rename = false;
        reformat = false }

type outcome = {
  file : string;
  output_file : string option;
  wall_ms : float;
  phase_ms : (string * float) list;
  iterations : int;
  changed : bool;
  failures : Engine.failure_site list;
  stats : Recover.stats;
  degraded_mode : mode;
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
    (Report.json_string site.Engine.phase)
    (Report.json_string (Guard.failure_label site.Engine.failure))
    (Report.json_string (Guard.failure_to_string site.Engine.failure))

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
            Printf.sprintf "%s: %.1f" (Report.json_string phase) ms)
          phases))

let outcome_to_json o =
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"file\": %s," (Report.json_string o.file);
      Printf.sprintf "  \"status\": %s,"
        (Report.json_string (if o.failures = [] then "ok" else "degraded"));
      Printf.sprintf "  \"wall_ms\": %.1f," o.wall_ms;
      Printf.sprintf "  \"phase_ms\": %s," (phase_ms_to_json o.phase_ms);
      Printf.sprintf "  \"iterations\": %d," o.iterations;
      Printf.sprintf "  \"changed\": %b," o.changed;
      Printf.sprintf "  \"degraded_mode\": %s,"
        (Report.json_string (mode_name o.degraded_mode));
      Printf.sprintf "  \"retries\": %d," o.retries;
      Printf.sprintf "  \"verdict\": %s,"
        (match o.verdict with
        | None -> "null"
        | Some v -> Report.json_string (Verify.verdict_name v));
      Printf.sprintf "  \"verdict_detail\": %s,"
        (match Option.bind o.verdict Verify.verdict_detail with
        | None -> "null"
        | Some d -> Report.json_string d);
      Printf.sprintf "  \"resumed\": %b," o.resumed;
      Printf.sprintf "  \"regions_total\": %d," o.regions_total;
      Printf.sprintf "  \"regions_recovered\": %d," o.regions_recovered;
      Printf.sprintf "  \"failures\": [%s],"
        (String.concat ", " (List.map failure_to_json o.failures));
      Printf.sprintf "  \"stats\": %s," (stats_to_json o.stats);
      Printf.sprintf "  \"output_file\": %s"
        (match o.output_file with
        | Some p -> Report.json_string p
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
  d_mode : string;
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

(* The persistent piece tier is only sound between runs that would evaluate
   pieces identically, so its fingerprint covers the cache format version
   and every evaluation-relevant knob.  [verify] is deliberately absent:
   the gate replays the same pieces, it does not change their results. *)
let piece_cache_fingerprint ~options ~timeout_s ~max_output_bytes =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ("piece-cache-v1", options, timeout_s, max_output_bytes) []))

(* field extraction for our own single-line manifest entries lives in
   {!Jsonl} (shared with the serve daemon's NDJSON protocol); a malformed
   line simply fails to match *)
let string_field = Jsonl.string_field
let int_field = Jsonl.int_field
let bool_field = Jsonl.bool_field

let journal_load path =
  let tbl = Hashtbl.create 64 in
  (match
     Guard.protect (fun () ->
         In_channel.with_open_bin path In_channel.input_all)
   with
  | Error _ -> ()
  | Ok text ->
      List.iter
        (fun line ->
          if string_field line "status" = Some "done" then
            match
              ( string_field line "file",
                string_field line "digest",
                string_field line "options" )
            with
            | Some f, Some d, Some o ->
                (* replace: the last entry for a file wins *)
                Hashtbl.replace tbl f
                  {
                    d_digest = d;
                    d_options = o;
                    d_clean =
                      Option.value ~default:false (bool_field line "clean");
                    d_changed =
                      Option.value ~default:false (bool_field line "changed");
                    d_verdict = string_field line "verdict";
                    d_detail = string_field line "verdict_detail";
                    d_rolled =
                      Option.value ~default:0 (int_field line "rolled_back");
                    d_mode =
                      Option.value ~default:"full"
                        (string_field line "degraded_mode");
                    d_output = string_field line "output_file";
                  }
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
    (Report.json_string file) (Report.json_string digest)
    (Report.json_string j.j_options)

let outcome_clean o =
  o.failures = [] && o.retries = 0 && o.verdict <> Some Verify.Diverged

let done_line j ~digest (o : outcome) =
  Printf.sprintf
    "{\"status\": \"done\", \"file\": %s, \"digest\": %s, \"options\": %s, \
     \"clean\": %b, \"changed\": %b, \"verdict\": %s, \"verdict_detail\": \
     %s, \"rolled_back\": %d, \"degraded_mode\": %s, \"output_file\": %s}"
    (Report.json_string (Filename.basename o.file))
    (Report.json_string digest)
    (Report.json_string j.j_options)
    (outcome_clean o) o.changed
    (match o.verdict with
    | None -> "null"
    | Some v -> Report.json_string (Verify.verdict_name v))
    (match o.verdict with
    | Some (Verify.Unverifiable reason) -> Report.json_string reason
    | _ -> "null")
    (match o.verdict with Some (Verify.Rolled_back n) -> n | _ -> 0)
    (Report.json_string (mode_name o.degraded_mode))
    (match o.output_file with
    | Some p -> Report.json_string p
    | None -> "null")

let verdict_of_entry (e : done_entry) =
  match e.d_verdict with
  | Some "equivalent" -> Some Verify.Equivalent
  | Some "rolled_back" -> Some (Verify.Rolled_back e.d_rolled)
  | Some "diverged" -> Some Verify.Diverged
  | Some "unverifiable" ->
      Some (Verify.Unverifiable (Option.value ~default:"" e.d_detail))
  | Some _ | None -> None

let mode_of_name = function
  | "static" -> Static
  | "token-only" -> Token_only
  | "passthrough" -> Passthrough
  | _ -> Full

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

(* the Passthrough rung: the engine is not run at all, the input is the
   output — the ladder's unconditional floor *)
let passthrough_guarded src =
  { Engine.result =
      { Engine.output = src; stats = Recover.new_stats (); iterations = 0;
        changed = false };
    failures = []; timings = []; regions_total = 0; regions_recovered = 0;
    edit_log = [] }

(* Walk the ladder: run an attempt, and when it degrades for any reason a
   weaker mode could dodge (anything but [Parse_failure] — no rung parses
   better than a stronger one, and partial recovery already made its best
   effort on the parse), retry one rung down with a fresh deadline.
   Failures accumulate across attempts so the report shows the whole
   descent; [Passthrough] cannot fail, so the walk terminates clean. *)
let run_ladder ?options ?cache ~timeout_s ?max_output_bytes src =
  let base = Option.value options ~default:Engine.default_options in
  let rec walk mode retries acc_failures =
    let guarded, parses =
      match mode with
      | Passthrough ->
          (passthrough_guarded src, { Engine.src_ast = None; out_ast = None })
      | m ->
          Engine.run_guarded_parsed ~options:(mode_options base m) ?cache
            ~timeout_s ?max_output_bytes src
    in
    let failures = acc_failures @ guarded.Engine.failures in
    let retryable =
      List.exists
        (fun (s : Engine.failure_site) ->
          s.Engine.failure <> Guard.Parse_failure)
        guarded.Engine.failures
    in
    match (retryable, weaker mode) with
    | true, Some next ->
        T.Metrics.incr (T.Metrics.counter "batch.ladder.retries");
        if T.active () then
          T.event "batch.retry"
            ~attrs:
              [ ("from", T.S (mode_name mode));
                ("to", T.S (mode_name next)) ];
        walk next (retries + 1) failures
    | _ -> (mode, retries, failures, guarded, parses)
  in
  walk Full 0 []

(* The shared request core: everything between "we have source text" and
   "we have an outcome plus output text".  Batch file processing and the
   serve daemon both go through it, so a service request walks the same
   retry ladder and semantic gate as a batch file — one hardening path,
   two transports. *)
let run_source ?options ?(timeout_s = 30.0) ?max_output_bytes ?cache
    ?(verify = false) ?verify_opts ~name src =
  let started = Guard.now () in
  (* quarantine scope: admission decisions (which rules may run) are fixed
     for the whole request — including the ladder's weaker rungs and the
     gate's rollback re-runs — and the verdict's rolled-back rule names
     feed the breakers when the scope closes.  No-op while disabled. *)
  Quarantine.begin_request ();
  let finish_quarantine rolled = Quarantine.end_request ~rolled_rules:rolled in
  match
    let mode, retries, ladder_failures, guarded, parses =
      run_ladder ?options ?cache ~timeout_s ?max_output_bytes src
    in
    (* the semantic gate verifies (and on divergence rolls back) the rung
       that produced the output; its re-runs repeat that same rung, with the
       same piece cache, so replayed pieces stay byte-identical *)
    let guarded, verdict, rolled_rules =
      if not verify then (guarded, None, [])
      else
        let base = Option.value options ~default:Engine.default_options in
        let rerun ~suppress =
          match mode with
          | Passthrough -> passthrough_guarded src
          | m ->
              Engine.run_guarded ~options:(mode_options base m) ?cache
                ~timeout_s ?max_output_bytes ~suppress src
        in
        let g, o =
          Verify.gate ?opts:verify_opts ?src_ast:parses.Engine.src_ast
            ?out_ast:parses.Engine.out_ast ~rerun ~src guarded
        in
        (g, Some o.Verify.verdict, o.Verify.rolled_rules)
    in
    (mode, retries, ladder_failures, guarded, verdict, rolled_rules)
  with
  | exception e ->
      Quarantine.abort_request ();
      raise e
  | mode, retries, ladder_failures, guarded, verdict, rolled_rules ->
  finish_quarantine rolled_rules;
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
      failures = ladder_failures; stats = result.Engine.stats;
      degraded_mode = mode; retries;
      regions_total = guarded.Engine.regions_total;
      regions_recovered = guarded.Engine.regions_recovered;
      verdict; resumed = false },
    result.Engine.output )

let process_file_inner ?options ?(timeout_s = 30.0) ?max_output_bytes ?cache
    ?out_dir ?(verify = false) ?verify_opts ?journal file =
  let started = Guard.now () in
  let finish ?output_file ?(phase_ms = []) ?(degraded_mode = Full)
      ?(retries = 0) ?(regions = (0, 0)) ?(verdict = None) ?(resumed = false)
      ~iterations ~changed ~stats failures =
    { file; output_file; wall_ms = (Guard.now () -. started) *. 1000.0;
      phase_ms; iterations; changed; failures; stats; degraded_mode; retries;
      regions_total = fst regions; regions_recovered = snd regions;
      verdict; resumed }
  in
  match
    Guard.protect (fun () ->
        Chaos.probe "batch.read";
        In_channel.with_open_bin file In_channel.input_all)
  with
  | Error failure ->
      finish ~iterations:0 ~changed:false ~stats:(Recover.new_stats ())
        [ { Engine.phase = "read"; failure } ]
  | Ok src -> (
      let digest = Digest.to_hex (Digest.string src) in
      match resume_hit journal ~file ~digest with
      | Some e ->
          (* journaled clean result with matching input and options, output
             still on disk: keep it, byte for byte *)
          T.Metrics.incr (T.Metrics.counter "batch.resume.skipped");
          finish ?output_file:e.d_output ~degraded_mode:(mode_of_name e.d_mode)
            ~verdict:(verdict_of_entry e) ~resumed:true ~iterations:0
            ~changed:e.d_changed ~stats:(Recover.new_stats ()) []
      | None ->
      Option.iter
        (fun j ->
          journal_append j (started_line j ~file:(Filename.basename file) ~digest))
        journal;
      (* the guarded engine is total; the outer protect is the backstop for
         anything outside it (e.g. report writing) *)
      let core, output =
        run_source ?options ~timeout_s ?max_output_bytes ?cache ~verify
          ?verify_opts ~name:file src
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
          wall_ms = (Guard.now () -. started) *. 1000.0 }
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

(* Reusable per-domain ring for unsampled traced runs: spans still record
   (ambient instrumentation stays exercised, and the trace could be dumped
   from a debugger), but nothing serializes to JSONL — the dominant cost
   of tracing — and the 64k-slot ring is allocated once per domain, not
   once per file. *)
let scratch_trace : T.trace Domain.DLS.key =
  Domain.DLS.new_key (fun () -> T.create ())

let process_file ?options ?timeout_s ?max_output_bytes ?cache ?out_dir
    ?trace_dir ?(sampled = true) ?verify ?verify_opts ?journal file =
  (* Scope the chaos stream to the file: injection becomes a pure function
     of (seed, basename, probe order), so a file draws the same faults no
     matter which pool domain ran it or in what order — outputs under
     injection stay byte-identical across --jobs levels.  Traced runs draw
     one extra probe (the trace write), but only after the output is
     already decided, so traced/untraced byte-identity holds too. *)
  Chaos.with_scope (Filename.basename file) @@ fun () ->
  (* one trace id per input file, installed as the domain's ambient request
     id: per-file traces adopt it, flight entries stamp it.  Observation
     only — the id draws from a process counter, never the chaos stream,
     so outputs stay byte-identical across --jobs levels. *)
  T.with_request_id (T.new_trace_id ()) @@ fun () ->
  let task () =
    (* the "pool.task" probe models a fault in the worker itself, outside
       every engine guard; the protect in [contained] below is what keeps
       it from crashing the pool *)
    Chaos.probe "pool.task";
    match trace_dir with
    | None ->
        process_file_inner ?options ?timeout_s ?max_output_bytes ?cache
          ?out_dir ?verify ?verify_opts ?journal file
    | Some _ when not sampled ->
        (* unsampled: record into the domain's scratch ring, skip the
           JSONL serialization — the trace machinery runs, the bytes
           don't land *)
        let trace = Domain.DLS.get scratch_trace in
        T.reset trace;
        T.with_trace trace (fun () ->
            T.span ~attrs:[ ("file", T.S file) ] "batch.file" (fun () ->
                process_file_inner ?options ?timeout_s ?max_output_bytes
                  ?cache ?out_dir ?verify ?verify_opts ?journal file))
    | Some dir ->
        (* one event stream per input: the trace is created in (and private
           to) whichever pool domain runs this file, installed as that
           domain's ambient context for the duration, and serialized next to
           the other per-file reports.  Tracing is observation only, so the
           deobfuscated output is byte-identical to an untraced run. *)
        let trace = T.create () in
        let outcome =
          T.with_trace trace (fun () ->
              T.span ~attrs:[ ("file", T.S file) ] "batch.file" (fun () ->
                  process_file_inner ?options ?timeout_s ?max_output_bytes
                    ?cache ?out_dir ?verify ?verify_opts ?journal file))
        in
        let path = Filename.concat dir (Filename.basename file ^ ".trace.jsonl") in
        ignore (Guard.protect (fun () -> write_file path (T.to_jsonl trace)));
        outcome
  in
  (* backstop: Pool.map re-raises worker exceptions at join, so anything
     escaping the per-file pipeline (an injected pool fault, a bug in
     report writing) must be converted here into a structured outcome
     rather than aborting the whole batch *)
  match Guard.protect task with
  | Ok outcome -> outcome
  | Error failure ->
      (* black box before the structured outcome: whatever the domain's
         flight ring holds about this file is about to be overwritten by
         the next one *)
      ignore
        (T.Flight.dump
           ~reason:("pool.task/" ^ Guard.failure_label failure)
           ());
      { file; output_file = None; wall_ms = 0.0; phase_ms = [];
        iterations = 0; changed = false;
        failures = [ { Engine.phase = "task"; failure } ];
        stats = Recover.new_stats (); degraded_mode = Full; retries = 0;
        regions_total = 0; regions_recovered = 0; verdict = None;
        resumed = false }

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

let run_files ?options ?timeout_s ?max_output_bytes ?out_dir ?trace_dir
    ?trace_sample ?(jobs = 1) ?(verify = true) ?verify_opts ?(resume = false)
    ?piece_cache_dir files =
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
     pool domain; with [piece_cache_dir] it also reads and writes the
     persistent tier, so a later run starts warm.  An unusable cache
     directory degrades to the in-memory tiers — caching is an
     accelerator, never a reason to fail the batch. *)
  let cache =
    let dir =
      Option.bind piece_cache_dir (fun dir ->
          match Guard.protect (fun () -> ensure_dir dir) with
          | Ok () -> Some dir
          | Error _ -> None)
    in
    Recover.Cache.create ?dir
      ~fingerprint:
        (piece_cache_fingerprint ~options ~timeout_s ~max_output_bytes)
      ()
  in
  let outcomes =
    match dir_failure with
    | Some site ->
        (* the output directory is unusable: report every file as a
           structured write failure instead of crashing or silently
           dropping the outputs *)
        List.map
          (fun file ->
            { file; output_file = None; wall_ms = 0.0; phase_ms = [];
              iterations = 0; changed = false; failures = [ site ];
              stats = Recover.new_stats (); degraded_mode = Full; retries = 0;
              regions_total = 0; regions_recovered = 0; verdict = None;
              resumed = false })
          files
    | None ->
        (* outcomes come back input-ordered regardless of which domain ran
           which file, so reports and outputs are deterministic — and so is
           trace sampling, which keys on the input index, not on which
           domain or in what order a file happened to run *)
        Pool.map ~jobs:jobs_effective
          (fun (i, file) ->
            let sampled =
              match trace_sample with
              | Some n when n > 1 -> i mod n = 0
              | _ -> true
            in
            process_file ?options ?timeout_s ?max_output_bytes ~cache
              ?out_dir ?trace_dir ~sampled ~verify ?verify_opts ?journal file)
          (List.mapi (fun i file -> (i, file)) files)
  in
  (* clean means clean at full strength: no contained failures and no trip
     down the retry ladder (retries > 0 implies failures <> [], since
     failures accumulate across attempts, but the predicate states the
     contract explicitly) *)
  let clean =
    List.length
      (List.filter (fun o -> o.failures = [] && o.retries = 0) outcomes)
  in
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

let sum_stats f outcomes =
  List.fold_left (fun acc o -> acc + f o.stats) 0 outcomes

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
    sites, cache hit-rate, per-phase wall totals, and the full metrics
    snapshot (counters, gauges, latency histograms) aggregated across every
    pool domain of the run. *)
let metrics_json s =
  let attempted = sum_stats (fun st -> st.Recover.pieces_attempted) s.outcomes in
  let hits = sum_stats (fun st -> st.Recover.cache_hits) s.outcomes in
  let hit_rate =
    if attempted = 0 then 0.0 else float_of_int hits /. float_of_int attempted
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
              (fun (k, n) -> Printf.sprintf "%s: %d" (Report.json_string k) n)
              (failure_site_counts s.outcomes)));
      (* per-piece counters from the outcomes plus the shared cache's own
         view: occupancy, generation-flip evictions, and how many hits the
         persistent tier answered *)
      (let cs =
         Option.value
           ~default:
             { Recover.Cache.entries = 0; hits = 0; lookups = 0;
               evictions = 0; persistent_loads = 0 }
           s.cache_stats
       in
       Printf.sprintf
         "  \"cache\": {\"pieces_attempted\": %d, \"cache_hits\": %d, \
          \"hit_rate\": %.3f, \"entries\": %d, \"lookups\": %d, \
          \"hits\": %d, \"evictions\": %d, \"persistent_loads\": %d},"
         attempted hits hit_rate cs.Recover.Cache.entries
         cs.Recover.Cache.lookups cs.Recover.Cache.hits
         cs.Recover.Cache.evictions cs.Recover.Cache.persistent_loads);
      Printf.sprintf "  \"jobs\": {\"requested\": %d, \"effective\": %d},"
        s.jobs_requested s.jobs_effective;
      Printf.sprintf "  \"phase_ms_total\": {%s},"
        (String.concat ", "
           (List.map
              (fun (p, ms) -> Printf.sprintf "%s: %.1f" (Report.json_string p) ms)
              (phase_totals s.outcomes)));
      (* how far down the ladder the run had to go, and how much text the
         partial-parse recovery salvaged *)
      Printf.sprintf "  \"degraded_modes\": {%s},"
        (String.concat ", "
           (List.map
              (fun m ->
                Printf.sprintf "%s: %d"
                  (Report.json_string (mode_name m))
                  (List.length
                     (List.filter (fun o -> o.degraded_mode = m) s.outcomes)))
              [ Full; Static; Token_only; Passthrough ]));
      Printf.sprintf "  \"retries_total\": %d,"
        (List.fold_left (fun acc o -> acc + o.retries) 0 s.outcomes);
      (* the semantic gate's verdict distribution and how much of the run
         was answered from the resume journal *)
      Printf.sprintf "  \"verify\": {%s},"
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s: %d" (Report.json_string k) n)
              (verdict_counts s.outcomes)));
      Printf.sprintf "  \"resumed\": %d,"
        (List.length (List.filter (fun o -> o.resumed) s.outcomes));
      (* dynamic-recovery funnel: regions attempted, regions replaced by
         provenance-mapped literals, regions the gate later rolled back
         (from the run-local metrics registry), and regions degraded to
         static-only *)
      Printf.sprintf
        "  \"dynamic\": {\"attempted\": %d, \"recovered\": %d, \
         \"rolled_back\": %d, \"unverifiable\": %d},"
        (sum_stats (fun st -> st.Recover.dynamic_attempted) s.outcomes)
        (sum_stats (fun st -> st.Recover.dynamic_recovered) s.outcomes)
        (T.Metrics.counter_value (T.Metrics.counter "verify.dynamic_rolled_back"))
        (sum_stats (fun st -> st.Recover.dynamic_unverifiable) s.outcomes);
      Printf.sprintf
        "  \"regions\": {\"total\": %d, \"recovered\": %d},"
        (List.fold_left (fun acc o -> acc + o.regions_total) 0 s.outcomes)
        (List.fold_left (fun acc o -> acc + o.regions_recovered) 0 s.outcomes);
      (* self-healing state: which rules the adaptive quarantine currently
         distrusts, and where the heap sits against the governor's
         watermarks *)
      Printf.sprintf "  \"quarantine\": {\"enabled\": %b, \"rules\": {%s}},"
        (Quarantine.enabled ())
        (String.concat ", "
           (List.map
              (fun (rule, st) ->
                Printf.sprintf "%s: %s" (Report.json_string rule)
                  (Report.json_string st))
              (Quarantine.snapshot ())));
      Printf.sprintf "  \"memory\": %s," (Pscommon.Memwatch.to_json ());
      Printf.sprintf "  \"metrics\": %s"
        (T.Metrics.snapshot_to_json (T.Metrics.snapshot ()));
      "}";
    ]

let run_dir ?options ?timeout_s ?max_output_bytes ?out_dir ?trace_dir
    ?trace_sample ?jobs ?verify ?verify_opts ?resume ?piece_cache_dir dir =
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
      ?trace_sample ?jobs ?verify ?verify_opts ?resume ?piece_cache_dir files
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
