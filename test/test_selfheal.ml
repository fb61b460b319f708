(* Tests for the self-healing service layer: the wedged-worker watchdog
   (victim answered, daemon keeps serving), respawn backoff, the adaptive
   rule quarantine breaker, OOM containment in piece recovery, and
   jobs-count byte-identity with supervision on. *)

module Serve = Deobf.Serve
module Jsonl = Deobf.Jsonl
module Chaos = Pscommon.Chaos
module Guard = Pscommon.Guard
module T = Pscommon.Telemetry
module Q = Deobf.Quarantine

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let with_chaos cfg f =
  Chaos.set (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set None) f

let with_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "selfheal-%s-%d" name (Unix.getpid ()))
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

let with_server name cfg_of f =
  with_temp_dir name @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  match Serve.start (cfg_of (Serve.Unix_sock sock)) with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let code =
        Fun.protect
          ~finally:(fun () -> Serve.stop server)
          (fun () -> f sock server)
        |> fun () -> Serve.wait server
      in
      check_i "graceful drain exits 0" 0 code

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

exception Closed

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
           | 0 -> raise Closed
           | r -> Buffer.add_subbytes buf bytes 0 r
           | exception Unix.Unix_error _ -> raise Closed)
     done
   with Closed -> ());
  lines ()

let request ?id ?op ?script ?timeout_s () =
  let field k v = Printf.sprintf "\"%s\": %s" k v in
  let fields =
    List.filter_map Fun.id
      [
        Option.map (fun i -> field "id" (T.json_string i)) id;
        Option.map (fun o -> field "op" (T.json_string o)) op;
        Option.map
          (fun s -> field "script" (T.json_string s))
          script;
        Option.map
          (fun t -> field "timeout_s" (Printf.sprintf "%g" t))
          timeout_s;
      ]
  in
  "{" ^ String.concat ", " fields ^ "}\n"

let response_for lines id =
  match
    List.find_opt (fun l -> Jsonl.string_field l "id" = Some id) lines
  with
  | Some l -> l
  | None ->
      Alcotest.failf "no response for id %s in %d line(s)" id
        (List.length lines)

let status_of line =
  Option.value ~default:"?" (Jsonl.string_field line "status")

let piece_script = "$x = 'he' + 'llo'; Invoke-Expression ('Write-Output ' + $x)"

let counter name = T.Metrics.counter_value (T.Metrics.counter name)

(* ---------- watchdog: wedged-worker preemption ---------- *)

let test_wedged_worker_preempted () =
  (* serve.wedge at rate 1.0 spins the worker in a checkpoint-free loop
     past its deadline: the watchdog must answer the victim with a
     structured wedged error, replace the worker, and the daemon must
     answer the next request normally *)
  let wedged_before = counter "pool.service.wedged" in
  let timeout_s = 0.3 and grace_s = 0.2 in
  with_server "wedge"
    (fun bind ->
      { (Serve.default_config bind) with
        Serve.jobs = 1;
        default_timeout_s = timeout_s;
        grace_s })
    (fun sock _server ->
      Chaos.set
        (Some
           { Chaos.seed = 5; rate = 0.0; site_rates = [ ("serve.wedge", 1.0) ] });
      let fd = connect sock in
      Fun.protect
        ~finally:(fun () ->
          Chaos.set None;
          Unix.close fd)
      @@ fun () ->
      let sent = Unix.gettimeofday () in
      send_all fd (request ~id:"victim" ~script:piece_script ());
      let lines = read_lines fd 1 in
      let elapsed = Unix.gettimeofday () -. sent in
      let v = response_for lines "victim" in
      (* the time to recover: the watchdog answers once deadline + grace
         has passed, and within one more grace window *)
      check_b
        (Printf.sprintf "victim answered after %.2f s" elapsed)
        true
        (elapsed <= timeout_s +. (2.0 *. grace_s));
      check_s "victim answered with a structured error" "error" (status_of v);
      check_s "error kind is wedged" "wedged"
        (Option.value ~default:"?" (Jsonl.string_field v "kind"));
      check_b "wedge counted" true
        (counter "pool.service.wedged" > wedged_before);
      (* chaos off: the replacement worker serves the next request *)
      Chaos.set None;
      send_all fd (request ~id:"next" ~script:piece_script ());
      let lines = read_lines fd 1 in
      check_s "daemon serves after preemption" "ok"
        (status_of (response_for lines "next")))

(* a pipelined flood at twice the queue bound under seeded wedge chaos:
   shed, wedged or served, every request gets an answer and the daemon
   keeps serving *)
let test_wedge_flood_answered () =
  let wedged_before = counter "pool.service.wedged" in
  with_server "wflood"
    (fun bind ->
      { (Serve.default_config bind) with
        Serve.jobs = 2;
        queue_cap = 4;
        default_timeout_s = 0.2;
        grace_s = 0.1 })
    (fun sock _server ->
      let n = 8 in
      (with_chaos
         { Chaos.seed = 11; rate = 0.0; site_rates = [ ("serve.wedge", 0.3) ] }
       @@ fun () ->
       let fd = connect sock in
       Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
       for i = 1 to n do
         send_all fd
           (request ~id:(Printf.sprintf "w%d" i) ~script:piece_script ())
       done;
       let lines = read_lines fd n in
       check_i "every flood request answered" n (List.length lines);
       for i = 1 to n do
         let s = status_of (response_for lines (Printf.sprintf "w%d" i)) in
         check_b
           (Printf.sprintf "w%d classified (%s)" i s)
           true
           (List.mem s [ "ok"; "overloaded"; "error" ])
       done;
       check_b "chaos wedged a worker" true
         (counter "pool.service.wedged" > wedged_before));
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"after" ~script:piece_script ());
      check_s "daemon serves after the flood" "ok"
        (status_of (response_for (read_lines fd 1) "after")))

(* ---------- respawn backoff schedule ---------- *)

let test_respawn_backoff_monotone () =
  let bo = Pscommon.Pool.Service.respawn_backoff in
  Alcotest.(check (float 1e-9)) "no failures, no delay" 0.0 (bo 0);
  Alcotest.(check (float 1e-9)) "first failure" 0.05 (bo 1);
  Alcotest.(check (float 1e-9)) "second failure doubles" 0.1 (bo 2);
  for n = 1 to 12 do
    check_b
      (Printf.sprintf "monotone at %d" n)
      true
      (bo (n + 1) >= bo n)
  done;
  Alcotest.(check (float 1e-9)) "capped" 5.0 (bo 20)

(* ---------- quarantine breaker ---------- *)

let test_quarantine_trips_and_readmits () =
  Q.reset ();
  Q.set_enabled true;
  Q.configure ~k:2 ~window_s:60.0 ~cooldown_s:0.05 ();
  Fun.protect
    ~finally:(fun () ->
      Q.set_enabled false;
      Q.reset ();
      Q.configure ~k:3 ~window_s:300.0 ~cooldown_s:30.0 ())
  @@ fun () ->
  let rule = "recover.piece" in
  (* one request: was the rule admitted, and did verify roll it back? *)
  let request rolled =
    Q.begin_request ();
    let admitted = Q.admits ~phase:"recover" ~kind:"piece" in
    Q.end_request
      ~rolled_rules:(if rolled && admitted then [ rule ] else []);
    admitted
  in
  check_b "closed breaker admits" true (request true);
  check_b "one rollback below K still admits" true (request true);
  check_i "K rollbacks trip the breaker" 1 (Q.trips rule);
  check_b "open breaker skips the rule" false (request true);
  Alcotest.(check (list (pair string string)))
    "snapshot shows the open rule"
    [ (rule, "open") ]
    (Q.snapshot ());
  (* decisions are per-request-stable: within one request the same rule
     answers the same even as state could change *)
  Q.begin_request ();
  let first = Q.admits ~phase:"recover" ~kind:"piece" in
  let second = Q.admits ~phase:"recover" ~kind:"piece" in
  Q.end_request ~rolled_rules:[];
  check_b "decision cached within the request" true (first = second);
  (* cooldown elapses: exactly one probe re-admits, a clean verdict
     closes the breaker — the rule earned its way back *)
  Unix.sleepf 0.08;
  check_b "half-open probe re-admits" true (request false);
  Alcotest.(check (list (pair string string)))
    "clean probe closes the breaker" [] (Q.snapshot ());
  check_b "closed again after re-admission" true (request false);
  (* re-trip, then fail the probe: the breaker re-opens with a doubled
     cooldown instead of flapping *)
  ignore (request true);
  ignore (request true);
  check_i "re-tripped" 2 (Q.trips rule);
  Unix.sleepf 0.08;
  check_b "probe re-admits the still-bad rule" true (request true);
  check_b "failed probe re-opens" false (request false)

let test_quarantine_disabled_admits_everything () =
  Q.reset ();
  check_b "disabled admits without a request scope" true
    (Q.admits ~phase:"recover" ~kind:"piece");
  Q.begin_request ();
  check_b "disabled admits inside a request scope" true
    (Q.admits ~phase:"engine" ~kind:"finalize");
  Q.end_request ~rolled_rules:[ "recover.piece"; "recover.piece" ];
  Alcotest.(check (list (pair string string)))
    "disabled records nothing" [] (Q.snapshot ())

(* end to end: a forced divergence rolls the same rules back on every
   request until the breaker opens, and no rollback follows *)
let test_quarantine_converges () =
  Q.reset ();
  Q.set_enabled true;
  Q.configure ~k:3 ~window_s:300.0 ~cooldown_s:3600.0 ();
  Fun.protect
    ~finally:(fun () ->
      Q.set_enabled false;
      Q.reset ();
      Q.configure ~k:3 ~window_s:300.0 ~cooldown_s:30.0 ())
  @@ fun () ->
  with_chaos
    { Chaos.seed = 11; rate = 0.0; site_rates = [ ("verify.diff", 1.0) ] }
  @@ fun () ->
  let src = "$x = 'a'\nforeach ($i in 1..3) { $x = $x + 'b' }\nWrite-Output $x" in
  let tripped_at = ref None and rolled_after = ref 0 in
  for i = 1 to 8 do
    let o, _ =
      Deobf.Batch.run_source ~verify:true ~name:(Printf.sprintf "bad-%d" i) src
    in
    let rolled =
      match o.Deobf.Batch.verdict with
      | Some (Deobf.Verify.Rolled_back n) -> n > 0
      | _ -> false
    in
    match !tripped_at with
    | None -> if Q.snapshot () <> [] then tripped_at := Some i
    | Some _ -> if rolled then incr rolled_after
  done;
  check_b "breaker opened by request K+1"
    true
    (match !tripped_at with Some i -> i <= 4 | None -> false);
  check_i "no rollback after the breaker opened" 0 !rolled_after

(* ---------- OOM containment in piece recovery ---------- *)

let test_injected_oom_contained () =
  (* the taxonomy route: the chaos OOM fault is Guard's dedicated
     injected-OOM exception, classified as a structured out-of-memory
     failure — never the runtime's preallocated Out_of_memory *)
  (match Guard.classify_exn Guard.Injected_oom with
  | Guard.Oom -> ()
  | f ->
      Alcotest.failf "Injected_oom classified as %s" (Guard.failure_label f));
  (match Guard.protect (fun () -> raise Guard.Injected_oom) with
  | Error f -> check_s "protect yields out-of-memory" "out-of-memory" (Guard.failure_label f)
  | Ok () -> Alcotest.fail "injected OOM vanished");
  (* end-to-end: recover.piece chaos at rate 1.0 faults every piece
     execution (one of the four taxonomy faults per draw, OOM included);
     every run must come back structured — output produced, pieces
     attempted but none recovered from a faulted execution, no exception
     escaping, no dead worker *)
  with_chaos
    { Chaos.seed = 5; rate = 0.0; site_rates = [ ("recover.piece", 1.0) ] }
  @@ fun () ->
  for i = 0 to 7 do
    Chaos.with_scope (Printf.sprintf "oom-%d" i) @@ fun () ->
    let o, out =
      Deobf.Batch.run_source ~verify:false ~timeout_s:10.0 ~name:"oom"
        piece_script
    in
    check_b "an output is always produced" true (String.length out > 0);
    check_b "pieces were attempted" true
      (o.Deobf.Batch.stats.Deobf.Recover.pieces_attempted > 0);
    check_i "no faulted piece was folded in" 0
      o.Deobf.Batch.stats.Deobf.Recover.pieces_recovered
  done

(* ---------- jobs-count byte-identity under supervision ---------- *)

let test_jobs_byte_identity_supervised () =
  let scripts =
    [
      piece_script;
      "Write-Output ('a'+'b'+'c')";
      "$v = 'x'; Write-Output $v";
      "Invoke-Expression ('Write-Output ' + ('4'+'2'))";
    ]
  in
  let outputs jobs =
    let result = ref [] in
    with_server
      (Printf.sprintf "ident%d" jobs)
      (fun bind ->
        { (Serve.default_config bind) with
          Serve.jobs;
          default_timeout_s = 30.0;
          grace_s = 5.0 })
      (fun sock _server ->
        let fd = connect sock in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        List.iteri
          (fun i s ->
            send_all fd
              (request ~id:(Printf.sprintf "s%d" i) ~script:s ()))
          scripts;
        let lines = read_lines fd (List.length scripts) in
        result :=
          List.mapi
            (fun i _ ->
              let r = response_for lines (Printf.sprintf "s%d" i) in
              check_s "answered ok" "ok" (status_of r);
              Option.value ~default:"" (Jsonl.string_field r "output"))
            scripts);
    !result
  in
  let seq = outputs 1 and par = outputs 4 in
  List.iteri
    (fun i (a, b) ->
      check_s (Printf.sprintf "script %d byte-identical across jobs" i) a b)
    (List.combine seq par)

(* ---------- client backoff schedule ---------- *)

let test_client_backoff_bounds () =
  let rng = Random.State.make [| 42 |] in
  for attempt = 0 to 12 do
    let v = Deobf.Client.backoff_ms rng ~retry_after_ms:100 ~attempt in
    check_b
      (Printf.sprintf "capped at 30s (attempt %d)" attempt)
      true (v <= 30_000.0);
    check_b (Printf.sprintf "positive (attempt %d)" attempt) true (v > 0.0)
  done;
  (* attempt 0: base * U(0.5, 1.5) *)
  for _ = 1 to 50 do
    let v = Deobf.Client.backoff_ms rng ~retry_after_ms:100 ~attempt:0 in
    check_b "jitter window respected" true (v >= 50.0 && v <= 150.0)
  done

let suite =
  [
    Alcotest.test_case "wedged worker preempted, daemon survives" `Quick
      test_wedged_worker_preempted;
    Alcotest.test_case "wedge flood: every request answered" `Quick
      test_wedge_flood_answered;
    Alcotest.test_case "respawn backoff monotone and capped" `Quick
      test_respawn_backoff_monotone;
    Alcotest.test_case "quarantine trips and re-admits" `Quick
      test_quarantine_trips_and_readmits;
    Alcotest.test_case "quarantine converges end to end" `Quick
      test_quarantine_converges;
    Alcotest.test_case "quarantine disabled admits everything" `Quick
      test_quarantine_disabled_admits_everything;
    Alcotest.test_case "injected OOM contained as structured failure" `Quick
      test_injected_oom_contained;
    Alcotest.test_case "jobs byte-identity with supervision on" `Quick
      test_jobs_byte_identity_supervised;
    Alcotest.test_case "client backoff bounded and jittered" `Quick
      test_client_backoff_bounds;
  ]
