(* Tests for the live telemetry plane: the Prometheus scrape endpoint
   (exercised concurrently under a chaos request flood), structured JSON
   logging, the flight recorder's fault dumps, and trace-id
   propagation — all observation-only, so outputs stay byte-identical
   whatever is switched on. *)

module T = Pscommon.Telemetry
module Pool = Pscommon.Pool
module Chaos = Pscommon.Chaos
module Serve = Deobf.Serve
module Jsonl = Deobf.Jsonl

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)
let contains = Pscommon.Strcase.contains

let with_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "obs-%s-%d" name (Unix.getpid ()))
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
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* ---------- Prometheus exposition ---------- *)

(* minimal well-formedness check for the text format: every non-comment,
   non-blank line is "name[{labels}] value" with a parseable value *)
let exposition_well_formed body =
  List.for_all
    (fun line ->
      line = ""
      || String.length line > 0 && line.[0] = '#'
      ||
      match String.rindex_opt line ' ' with
      | None -> false
      | Some i ->
          let name = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          name <> ""
          && (match name.[0] with
             | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
             | _ -> false)
          && float_of_string_opt value <> None)
    (String.split_on_char '\n' body)

let test_prometheus_exposition () =
  let c = T.Metrics.counter "obs.prom.hits" in
  T.Metrics.incr ~by:3 c;
  T.Metrics.set (T.Metrics.gauge "obs.prom.depth") 7;
  let h = T.Metrics.histogram "obs.prom.lat_ms" in
  List.iter (T.Metrics.observe h) [ 0.5; 2.0; 2.0; 700.0 ];
  let body = T.Metrics.to_prometheus (T.Metrics.snapshot ()) in
  check_b "well-formed exposition" true (exposition_well_formed body);
  check_b "counter typed and _total-suffixed" true
    (contains ~needle:"# TYPE invoke_deobf_obs_prom_hits_total counter" body
    && contains ~needle:"invoke_deobf_obs_prom_hits_total 3" body);
  check_b "gauge rendered" true
    (contains ~needle:"invoke_deobf_obs_prom_depth 7" body);
  check_b "histogram count and sum" true
    (contains ~needle:"invoke_deobf_obs_prom_lat_ms_count 4" body
    && contains ~needle:"invoke_deobf_obs_prom_lat_ms_sum 704.5" body);
  check_b "+Inf bucket closes the series" true
    (contains
       ~needle:"invoke_deobf_obs_prom_lat_ms_bucket{le=\"+Inf\"} 4" body);
  (* cumulative buckets: the le="2" bucket holds the 0.5 and both 2.0s *)
  check_b "buckets are cumulative" true
    (contains ~needle:"invoke_deobf_obs_prom_lat_ms_bucket{le=\"2\"} 3" body)

let test_histogram_json_quantiles () =
  let h = T.Metrics.histogram "obs.json.lat_ms" in
  for _ = 1 to 9 do
    T.Metrics.observe h 1.0
  done;
  T.Metrics.observe h 900.0;
  let json = T.Metrics.snapshot_to_json (T.Metrics.snapshot ()) in
  (* p50/p90/p99 ride along in metrics.json (upper log2-bucket bounds) *)
  check_b "snapshot carries quantiles" true
    (contains ~needle:"\"p50_ms\":" json
    && contains ~needle:"\"p90_ms\":" json
    && contains ~needle:"\"p99_ms\":" json)

(* ---------- structured log format ---------- *)

let test_log_format_switch () =
  check_b "parse text" true (T.Log.format_of_string "text" = Some T.Log.Text);
  check_b "parse json" true (T.Log.format_of_string "json" = Some T.Log.Json);
  check_b "parse jsonl alias" true
    (T.Log.format_of_string "JSONL" = Some T.Log.Json);
  check_b "reject junk" true (T.Log.format_of_string "yaml" = None);
  check_b "text is the default" true (T.Log.format () = T.Log.Text);
  T.Log.set_format T.Log.Json;
  Fun.protect ~finally:(fun () -> T.Log.set_format T.Log.Text) @@ fun () ->
  check_b "switch visible" true (T.Log.format () = T.Log.Json)

(* ---------- trace ids ---------- *)

let test_trace_id_scoping () =
  check_b "no ambient id by default" true (T.current_request_id () = None);
  let a = T.new_trace_id () and b = T.new_trace_id () in
  check_b "ids are unique" true (a <> b);
  T.with_request_id a (fun () ->
      check_b "ambient id in scope" true (T.current_request_id () = Some a);
      (* a trace created in scope adopts the request's id *)
      let tr = T.create () in
      check_s "trace adopts the ambient id" a (T.trace_id tr);
      T.with_request_id b (fun () ->
          check_b "nested scope shadows" true
            (T.current_request_id () = Some b));
      check_b "inner scope restored" true (T.current_request_id () = Some a));
  check_b "scope exits clean" true (T.current_request_id () = None);
  let tr = T.create () in
  check_b "out of scope: fresh id" true (T.trace_id tr <> a && T.trace_id tr <> b)

(* ---------- flight recorder ---------- *)

let test_flight_dump_on_worker_failure () =
  with_temp_dir "flight" @@ fun dir ->
  T.Flight.set_sink (Some dir);
  Fun.protect ~finally:(fun () -> T.Flight.set_sink None) @@ fun () ->
  check_b "recorder enabled" true (T.Flight.enabled ());
  let rid = T.new_trace_id () in
  (* a service worker whose handler records (as an instrumented request
     would) and then dies: the recycle path must dump the black box *)
  let before = T.Flight.dumps_total () in
  let svc =
    Pool.Service.create ~jobs:1 ~queue_cap:4 (fun () ->
        T.with_request_id rid (fun () ->
            T.event "obs.request" ~attrs:[ ("step", T.S "handling") ];
            failwith "injected worker failure"))
  in
  check_b "submitted" true (Pool.Service.submit svc ());
  Pool.Service.shutdown svc;
  check_b "a dump was attempted" true (T.Flight.dumps_total () > before);
  let dumps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  in
  check_b "dump file written" true (dumps <> []);
  let body =
    In_channel.with_open_bin
      (Filename.concat dir (List.hd dumps))
      In_channel.input_all
  in
  check_b "dump names the recycle" true (contains ~needle:"worker-recycled" body);
  check_b "dump carries the failing request's trace id" true
    (contains ~needle:rid body);
  check_b "dump holds the request's events" true
    (contains ~needle:"obs.request" body)

let test_flight_dump_on_pool_task_fault () =
  with_temp_dir "flightbatch" @@ fun dir ->
  let sink = Filename.concat dir "flight" in
  let sample = Filename.concat dir "s.ps1" in
  write_file sample "$x = 'pay' + 'load'; Write-Output $x";
  T.Flight.set_sink (Some sink);
  Chaos.set
    (Some { Chaos.seed = 5; rate = 0.0; site_rates = [ ("pool.task", 1.0) ] });
  Fun.protect
    ~finally:(fun () ->
      Chaos.set None;
      T.Flight.set_sink None)
  @@ fun () ->
  let outcome = Deobf.Batch.process_file ~timeout_s:30.0 sample in
  (* the injected fault is contained as a structured task failure... *)
  check_b "task failure recorded" true
    (List.exists
       (fun (s : Deobf.Engine.failure_site) -> s.Deobf.Engine.phase = "task")
       outcome.Deobf.Batch.failures);
  (* ...and forensics landed in the sink *)
  let dumps =
    Sys.readdir sink |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  in
  check_b "flight dump written for the fault" true (dumps <> []);
  let body =
    In_channel.with_open_bin
      (Filename.concat sink (List.hd dumps))
      In_channel.input_all
  in
  check_b "dump names the pool fault" true (contains ~needle:"pool.task/" body);
  check_b "dump header carries a trace id" true
    (contains ~needle:"\"trace_id\": \"" body)

let test_flight_disabled_is_silent () =
  T.Flight.set_sink None;
  check_b "disabled" true (not (T.Flight.enabled ()));
  let before = T.Flight.dumps_total () in
  check_b "dump without sink is None" true (T.Flight.dump ~reason:"noop" () = None);
  check_i "no dump counted" before (T.Flight.dumps_total ());
  T.with_request_id (T.new_trace_id ()) (fun () ->
      check_b "an unrecorded request installs no ring" true
        (T.current_trace () = None))

(* A file the gate rules [diverged]: per-site chaos faults every log
   comparison, so no rollback round can restore equivalence. *)
let diverged_sample dir =
  let path = Filename.concat dir "d.ps1" in
  write_file path
    "$v1 = 'a1' + 'b'; Write-Output $v1\n$v2 = 'a2' + 'b'; Write-Output $v2\n";
  path

let with_verify_diff_chaos f =
  Chaos.set
    (Some { Chaos.seed = 3; rate = 0.0; site_rates = [ ("verify.diff", 1.0) ] });
  Fun.protect ~finally:(fun () -> Chaos.set None) f

let read_lines_of path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* every dump in [sink], header line first *)
let dumps sink =
  Sys.readdir sink |> Array.to_list |> List.sort String.compare
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.map (fun f -> read_lines_of (Filename.concat sink f))

let count_kind kind lines =
  List.length
    (List.filter
       (contains ~needle:(Printf.sprintf "\"kind\": \"%s\"" kind))
       lines)

let test_flight_dump_closes_spans () =
  with_temp_dir "flightends" @@ fun dir ->
  let sink = Filename.concat dir "flight" in
  let sample = diverged_sample dir in
  T.Flight.set_sink (Some sink);
  Fun.protect ~finally:(fun () -> T.Flight.set_sink None) @@ fun () ->
  (* no trace installed: the file runs untraced, the recorder alone on *)
  let outcome =
    with_verify_diff_chaos (fun () ->
        Deobf.Batch.process_file ~timeout_s:30.0 ~verify:true sample)
  in
  check_b "verdict diverged" true
    (outcome.Deobf.Batch.verdict = Some Deobf.Verify.Diverged);
  match dumps sink with
  | [ header :: events ] ->
      check_b "dump names the verdict" true
        (contains ~needle:"verify-diverged" header);
      let begins = count_kind "begin" events in
      check_b "dump holds spans" true (begins > 0);
      check_i "one end per begin" begins (count_kind "end" events);
      let piece_ends =
        List.filter
          (contains ~needle:"\"kind\": \"end\", \"name\": \"recover.piece\"")
          events
      in
      check_b "piece ends dumped" true (piece_ends <> []);
      List.iter
        (fun l ->
          check_b "piece end carries its verdict" true
            (contains ~needle:"\"verdict\": " l))
        piece_ends
  | ds -> Alcotest.failf "expected one dump, got %d" (List.length ds)

let test_flight_second_dump_is_new () =
  with_temp_dir "flighttwice" @@ fun dir ->
  T.Flight.set_sink (Some dir);
  Fun.protect ~finally:(fun () -> T.Flight.set_sink None) @@ fun () ->
  let read p = In_channel.with_open_bin (Option.get p) In_channel.input_all in
  let first, second =
    T.with_request_id (T.new_trace_id ()) (fun () ->
        T.event "obs.first";
        let a = T.Flight.dump ~reason:"one" () in
        T.event "obs.second";
        let b = T.Flight.dump ~reason:"two" () in
        (read a, read b))
  in
  check_b "first dump holds the first event" true
    (contains ~needle:"obs.first" first);
  check_b "second dump holds the second event" true
    (contains ~needle:"obs.second" second);
  check_b "second dump does not repeat the first" false
    (contains ~needle:"obs.first" second)

let test_flight_dump_keeps_trace_whole () =
  with_temp_dir "flighttrace" @@ fun dir ->
  let sink = Filename.concat dir "flight" in
  let trace_dir = Filename.concat dir "traces" in
  Sys.mkdir trace_dir 0o755;
  let sample = diverged_sample dir in
  T.Flight.set_sink (Some sink);
  Fun.protect ~finally:(fun () -> T.Flight.set_sink None) @@ fun () ->
  ignore
    (with_verify_diff_chaos (fun () ->
         Deobf.Batch.process_file ~timeout_s:30.0 ~verify:true ~trace_dir
           sample));
  let trace = read_lines_of (Filename.concat trace_dir "d.ps1.trace.jsonl") in
  match dumps sink with
  | [ _header :: events ] ->
      check_b "dump holds events" true (events <> []);
      List.iter
        (fun l ->
          check_b "dumped event is still in the trace file" true
            (List.mem l trace))
        events;
      check_i "trace file: one end per begin" (count_kind "begin" trace)
        (count_kind "end" trace)
  | ds -> Alcotest.failf "expected one dump, got %d" (List.length ds)

(* ---------- byte identity across jobs with everything switched on ---------- *)

let test_jobs_identity_with_observability_on () =
  with_temp_dir "identity" @@ fun dir ->
  let rng = Pscommon.Rng.of_int 11 in
  let files =
    List.init 6 (fun i ->
        let path = Filename.concat dir (Printf.sprintf "s%d.ps1" i) in
        write_file path
          (Obfuscator.Obfuscate.multilayer rng 2
             (Printf.sprintf
                "$a%d = 'he';$b = 'llo';Write-Host ($a%d + $b)" i i));
        path)
  in
  let run jobs sub =
    let out_dir = Filename.concat dir ("out-" ^ sub) in
    let trace_dir = Filename.concat dir ("traces-" ^ sub) in
    let flight = Filename.concat dir ("flight-" ^ sub) in
    T.Flight.set_sink (Some flight);
    Fun.protect ~finally:(fun () -> T.Flight.set_sink None) @@ fun () ->
    ignore
      (Deobf.Batch.run_files ~timeout_s:30.0 ~out_dir ~trace_dir ~jobs files);
    out_dir
  in
  let out1 = run 1 "j1" and out4 = run 4 "j4" in
  List.iter
    (fun file ->
      let base = Filename.basename file in
      let read d =
        In_channel.with_open_bin (Filename.concat d base) In_channel.input_all
      in
      check_s ("output byte-identical across jobs: " ^ base) (read out1)
        (read out4))
    files;
  (* per-file traces carry correlation ids *)
  List.iter
    (fun file ->
      let base = Filename.basename file in
      let trace =
        In_channel.with_open_bin
          (Filename.concat
             (Filename.concat dir "traces-j4")
             (base ^ ".trace.jsonl"))
          In_channel.input_all
      in
      check_b ("trace carries a trace id: " ^ base) true
        (contains ~needle:"\"trace_id\": \"" trace))
    files

(* ---------- the scrape endpoint ---------- *)

(* tiny HTTP/1.0-style client: one GET, read to EOF (the endpoint closes) *)
let http_get sock_path path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock_path);
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path in
  let n = String.length req in
  let rec send off =
    if off < n then send (off + Unix.write_substring fd req off (n - off))
  in
  send 0;
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec recv () =
    if Unix.gettimeofday () < deadline then
      match Unix.select [ fd ] [] [] 0.5 with
      | [], _, _ -> recv ()
      | _ -> (
          match Unix.read fd bytes 0 (Bytes.length bytes) with
          | 0 -> ()
          | r ->
              Buffer.add_subbytes buf bytes 0 r;
              recv ()
          | exception Unix.Unix_error _ -> ())
  in
  recv ();
  Buffer.contents buf

let body_of_http response =
  match Pscommon.Strcase.index_opt ~needle:"\r\n\r\n" response with
  | Some i -> String.sub response (i + 4) (String.length response - i - 4)
  | None -> ""

let request_line ?(trace = false) ?(timeout_s = 0.0) id script =
  Printf.sprintf "{\"id\": %s, \"script\": %s%s%s}\n"
    (T.json_string id)
    (T.json_string script)
    (if trace then ", \"trace\": true" else "")
    (if timeout_s > 0.0 then Printf.sprintf ", \"timeout_s\": %g" timeout_s
     else "")

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let read_lines ?(deadline_s = 60.0) fd n =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 65536 in
  let lines () =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  (try
     while List.length (lines ()) < n && Unix.gettimeofday () < deadline do
       match Unix.select [ fd ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ -> (
           match Unix.read fd bytes 0 (Bytes.length bytes) with
           | 0 -> raise Exit
           | r -> Buffer.add_subbytes buf bytes 0 r
           | exception Unix.Unix_error _ -> raise Exit)
     done
   with Exit -> ());
  lines ()

let piece_script = "$x = 'he' + 'llo'; Invoke-Expression ('Write-Output ' + $x)"

let test_scrape_during_chaos_flood () =
  (* the acceptance drill: serve.* chaos at 10%, load at 2x the queue cap,
     and a scraper hammering /metrics the whole time — every request
     answered, every scrape a valid exposition *)
  with_temp_dir "scrape" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let msock = Filename.concat dir "m.sock" in
  let cfg =
    { (Serve.default_config (Serve.Unix_sock sock)) with
      Serve.jobs = 2;
      queue_cap = 4;
      metrics_addr = Some (Serve.Unix_sock msock) }
  in
  Chaos.set
    (Some
       { Chaos.seed = 7; rate = 0.0;
         site_rates =
           [ ("serve.accept", 0.1); ("serve.read", 0.1); ("serve.write", 0.1);
             ("serve.queue", 0.1) ] });
  Fun.protect ~finally:(fun () -> Chaos.set None) @@ fun () ->
  match Serve.start cfg with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let code =
        Fun.protect ~finally:(fun () -> Serve.stop server) (fun () ->
            (* give the metrics listener a moment to bind *)
            let rec await n =
              if not (Sys.file_exists msock) && n > 0 then begin
                Unix.sleepf 0.05;
                await (n - 1)
              end
            in
            await 100;
            (* scraper domain: poll /metrics concurrently with the flood.
               The flood starts only once the scraper is polling, so a
               flood answered before the new domain got scheduled cannot
               leave the scrape list empty. *)
            let stop_scraping = Atomic.make false in
            let polling = Atomic.make false in
            let scraper =
              Domain.spawn (fun () ->
                  let acc = ref [] in
                  while not (Atomic.get stop_scraping) do
                    Atomic.set polling true;
                    acc := http_get msock "/metrics" :: !acc;
                    Unix.sleepf 0.02
                  done;
                  !acc)
            in
            while not (Atomic.get polling) do
              Unix.sleepf 0.001
            done;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            Unix.connect fd (Unix.ADDR_UNIX sock);
            let n = 8 (* 2x queue_cap *) in
            let payload = Buffer.create 1024 in
            for i = 1 to n do
              Buffer.add_string payload
                (request_line (Printf.sprintf "c%d" i) piece_script)
            done;
            send_all fd (Buffer.contents payload);
            let lines = read_lines fd n in
            Atomic.set stop_scraping true;
            let scrapes = Domain.join scraper in
            check_i "every request answered under injection" n
              (List.length lines);
            List.iter
              (fun l ->
                let s =
                  Option.value ~default:"?" (Jsonl.string_field l "status")
                in
                check_b ("status classified: " ^ s) true
                  (List.mem s [ "ok"; "degraded"; "overloaded"; "error" ]))
              lines;
            check_b "scrapes happened during the flood" true
              (List.length scrapes >= 1);
            List.iter
              (fun response ->
                check_b "scrape is HTTP 200" true
                  (contains ~needle:"HTTP/1.1 200 OK" response);
                check_b "scrape declares the exposition version" true
                  (contains ~needle:"version=0.0.4" response);
                let body = body_of_http response in
                check_b "scrape body well-formed" true
                  (exposition_well_formed body);
                check_b "scrape body has serve counters" true
                  (contains ~needle:"invoke_deobf_serve_requests_total" body);
                check_b "scrape body has no window series" false
                  (contains ~needle:"invoke_deobf_window_" body))
              scrapes;
            (* once the flood is answered nothing else writes the registry
               (a worker observes its request's latency just after the
               response, hence the pause): a scrape is the fresh snapshot *)
            Unix.sleepf 0.2;
            let body = body_of_http (http_get msock "/metrics") in
            check_s "scrape is Metrics.to_prometheus of a fresh snapshot"
              (T.Metrics.to_prometheus (T.Metrics.snapshot ()))
              body;
            (* an unknown path is a 404, not a hang or a crash *)
            check_b "unknown path 404s" true
              (contains ~needle:"404" (http_get msock "/other"));
            (* start the drain with slow work still in flight: the
               scrape endpoint has its own stop flag and must keep
               answering until the drain completes *)
            send_all fd
              (request_line ~timeout_s:0.8 "drain-probe"
                 "$x = $(while (1 -lt 2) { 1 }; 'ok')");
            Unix.sleepf 0.2;
            Serve.stop server;
            check_b "scrape answers during drain" true
              (contains ~needle:"HTTP/1.1 200 OK"
                 (http_get msock "/metrics"));
            check_i "drain answers the in-flight request" 1
              (List.length (read_lines fd 1)))
        |> fun () -> Serve.wait server
      in
      check_i "graceful drain exits 0" 0 code

let test_serve_inline_trace_and_trace_id () =
  with_temp_dir "inline" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.default_config (Serve.Unix_sock sock)) with Serve.jobs = 1 }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let code =
        Fun.protect ~finally:(fun () -> Serve.stop server) (fun () ->
            let rec await n =
              if not (Sys.file_exists sock) && n > 0 then begin
                Unix.sleepf 0.05;
                await (n - 1)
              end
            in
            await 100;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            Unix.connect fd (Unix.ADDR_UNIX sock);
            send_all fd (request_line ~trace:true "t1" piece_script);
            send_all fd (request_line "t2" piece_script);
            let lines = read_lines fd 2 in
            let find id =
              match
                List.find_opt
                  (fun l -> Jsonl.string_field l "id" = Some id)
                  lines
              with
              | Some l -> l
              | None -> Alcotest.failf "no response for %s" id
            in
            let traced = find "t1" and plain = find "t2" in
            (* every response names its request's correlation id *)
            let tid l =
              match Jsonl.string_field l "trace_id" with
              | Some t when t <> "" -> t
              | _ -> Alcotest.failf "missing trace_id"
            in
            check_b "distinct requests, distinct ids" true
              (tid traced <> tid plain);
            (* only the opted-in request pays for inline trace events *)
            check_b "traced response carries events" true
              (contains ~needle:"\"trace\": [" traced
              && contains ~needle:"serve.request" traced);
            check_b "untraced response has no trace field" true
              (not (contains ~needle:"\"trace\": [" plain));
            (* tracing is observation-only: same output either way *)
            check_b "outputs identical" true
              (Jsonl.string_field traced "output"
              = Jsonl.string_field plain "output"))
        |> fun () -> Serve.wait server
      in
      check_i "graceful drain exits 0" 0 code

(* One hit-rate definition, hits over lookups of the piece cache, on every
   surface: the batch rollup here, the serve [metrics] op below, and the
   CLI's --summary (the cram test compares it with metrics.json). *)
let test_one_hit_rate_definition () =
  with_temp_dir "hitrate" @@ fun dir ->
  let scripts =
    List.map
      (fun (s : Corpus.Generator.sample) -> s.obfuscated)
      (Corpus.Generator.generate ~seed:7 ~count:6)
  in
  let files =
    List.mapi
      (fun i text ->
        let path = Filename.concat dir (Printf.sprintf "s%d.ps1" i) in
        write_file path text;
        path)
      scripts
  in
  let rate_of hits lookups =
    Printf.sprintf "%.3f" (float_of_int hits /. float_of_int lookups)
  in
  let rendered line =
    match Jsonl.float_field line "hit_rate" with
    | Some r -> Printf.sprintf "%.3f" r
    | None -> Alcotest.failf "no hit_rate in %s" line
  in
  let s = Deobf.Batch.run_files ~timeout_s:30.0 ~verify:false files in
  let cs = Option.get s.Deobf.Batch.cache_stats in
  check_b "the batch hit the cache" true (cs.Deobf.Recover.Cache.hits > 0);
  check_s "metrics.json: hits / lookups"
    (rate_of cs.Deobf.Recover.Cache.hits cs.Deobf.Recover.Cache.lookups)
    (rendered (Jsonl.oneline (Deobf.Batch.metrics_json s)));
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.default_config (Serve.Unix_sock sock)) with Serve.jobs = 1 }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let metrics =
        Fun.protect ~finally:(fun () -> Serve.stop server) (fun () ->
            let rec await n =
              if not (Sys.file_exists sock) && n > 0 then begin
                Unix.sleepf 0.05;
                await (n - 1)
              end
            in
            await 100;
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
            Unix.connect fd (Unix.ADDR_UNIX sock);
            List.iteri
              (fun i text ->
                send_all fd (request_line (Printf.sprintf "r%d" i) text))
              scripts;
            ignore (read_lines fd (List.length scripts));
            send_all fd "{\"op\": \"metrics\", \"id\": \"m\"}\n";
            match read_lines fd 1 with
            | [ line ] -> line
            | _ -> Alcotest.fail "no metrics response")
      in
      check_i "graceful drain exits 0" 0 (Serve.wait server);
      let field k =
        match Jsonl.int_field metrics k with
        | Some n -> n
        | None -> Alcotest.failf "no %s in %s" k metrics
      in
      check_b "the daemon hit the cache" true (field "hits" > 0);
      check_s "serve metrics op: hits / lookups"
        (rate_of (field "hits") (field "lookups"))
        (rendered metrics)

let suite =
  [
    Alcotest.test_case "prometheus exposition well-formed" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "histogram json carries quantiles" `Quick
      test_histogram_json_quantiles;
    Alcotest.test_case "log format switch" `Quick test_log_format_switch;
    Alcotest.test_case "trace-id scoping" `Quick test_trace_id_scoping;
    Alcotest.test_case "flight dump on worker failure" `Quick
      test_flight_dump_on_worker_failure;
    Alcotest.test_case "flight dump on injected pool.task fault" `Quick
      test_flight_dump_on_pool_task_fault;
    Alcotest.test_case "flight disabled is silent" `Quick
      test_flight_disabled_is_silent;
    Alcotest.test_case "flight dump closes every span" `Quick
      test_flight_dump_closes_spans;
    Alcotest.test_case "flight second dump is new events" `Quick
      test_flight_second_dump_is_new;
    Alcotest.test_case "flight dump keeps the trace file whole" `Quick
      test_flight_dump_keeps_trace_whole;
    Alcotest.test_case "byte identity across jobs, observability on" `Quick
      test_jobs_identity_with_observability_on;
    Alcotest.test_case "scrape endpoint during chaos flood" `Quick
      test_scrape_during_chaos_flood;
    Alcotest.test_case "inline trace and response trace ids" `Quick
      test_serve_inline_trace_and_trace_id;
    Alcotest.test_case "one hit-rate definition" `Quick
      test_one_hit_rate_definition;
  ]
