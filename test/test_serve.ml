(* Tests for the serve daemon: NDJSON round-trips, bounded-queue admission
   control under flood, per-request deadline isolation, chaos containment
   at the socket edges, graceful drain, and the warm piece cache.  The
   standing contract: every request line is answered by exactly one
   response line (report, overloaded, or error) and the daemon never
   dies. *)

module Serve = Deobf.Serve
module Jsonl = Deobf.Jsonl
module Chaos = Pscommon.Chaos

let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let with_chaos cfg f =
  Chaos.set (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set None) f

let with_temp_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-%s-%d" name (Unix.getpid ()))
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

(* start a daemon on a fresh unix socket, run the test body, and always
   drain + join afterwards so no domain outlives the test *)
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

(* ---------- tiny NDJSON client ---------- *)

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

(* read until [n] complete lines arrived (or the deadline passes, letting
   the count assertions below produce a readable failure) *)
let read_lines ?(deadline_s = 60.0) fd n =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 65536 in
  (* what follows the last newline is a line still arriving: a response
     longer than one read must not count before its end *)
  let lines () =
    match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
    | [] -> []
    | _arriving :: complete ->
        List.filter (fun l -> l <> "") (List.rev complete)
  in
  (try
     while
       List.length (lines ()) < n && Unix.gettimeofday () < deadline
     do
       match Unix.select [ fd ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ -> (
           match Unix.read fd bytes 0 (Bytes.length bytes) with
           | 0 -> raise Closed
           | r -> Buffer.add_subbytes buf bytes 0 r
           | exception Unix.Unix_error _ ->
               (* a reset still leaves what already arrived in [buf] *)
               raise Closed)
     done
   with Closed -> ());
  lines ()

let request ?id ?op ?script ?timeout_s ?verify () =
  let field k v = Printf.sprintf "\"%s\": %s" k v in
  let fields =
    List.filter_map Fun.id
      [
        Option.map (fun i -> field "id" (Pscommon.Telemetry.json_string i)) id;
        Option.map (fun o -> field "op" (Pscommon.Telemetry.json_string o)) op;
        Option.map
          (fun s -> field "script" (Pscommon.Telemetry.json_string s))
          script;
        Option.map (fun t -> field "timeout_s" (Printf.sprintf "%g" t)) timeout_s;
        Option.map (fun v -> field "verify" (string_of_bool v)) verify;
      ]
  in
  "{" ^ String.concat ", " fields ^ "}\n"

let response_for lines id =
  match
    List.find_opt (fun l -> Jsonl.string_field l "id" = Some id) lines
  with
  | Some l -> l
  | None -> Alcotest.failf "no response for id %s in %d line(s)" id (List.length lines)

let field line key = Option.value ~default:"?" (Jsonl.string_field line key)
let status_of line = field line "status"

(* the decode-piece sample: its Invoke-Expression argument is a piece the
   engine executes and replaces, so the piece cache sees real traffic *)
let piece_script = "$x = 'he' + 'llo'; Invoke-Expression ('Write-Output ' + $x)"

(* a wall-clock bomb: an infinite loop the interpreter can only contain by
   deadline — exercises per-request budget isolation.  Its piece is padded
   to buy the steps to outlast [timeout_s]: unpadded, the loop runs out of
   its step budget within milliseconds, before any deadline *)
let bomb_request ~id ~timeout_s =
  request ~id ~script:(Test_guard.decode_bomb ~timeout_s) ~timeout_s ()

(* ---------- round trips ---------- *)

let test_roundtrip () =
  with_server "rt"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"r1" ~script:piece_script ());
      let lines = read_lines fd 1 in
      let r = response_for lines "r1" in
      check_s "status ok" "ok" (status_of r);
      (match Jsonl.string_field r "output" with
      | Some out -> check_b "output changed" true (out <> piece_script)
      | None -> Alcotest.fail "missing output");
      check_b "report embedded" true
        (Jsonl.string_field r "file" = Some "req-1"))

let test_health_and_metrics () =
  with_server "hm"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"h" ~op:"health" ());
      send_all fd (request ~id:"m" ~op:"metrics" ());
      let lines = read_lines fd 2 in
      let h = response_for lines "h" in
      check_s "health ok" "ok" (status_of h);
      check_s "health state" "serving"
        (Option.value ~default:"?" (Jsonl.string_field h "state"));
      check_b "health queue depth present" true
        (Jsonl.int_field h "queue_depth" <> None);
      let m = response_for lines "m" in
      check_s "metrics ok" "ok" (status_of m);
      check_b "metrics payload has counters" true
        (Option.bind (Jsonl.parse m) (fun t -> Jsonl.find t "counters")
         <> None))

let test_malformed_and_unknown () =
  with_server "bad"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* no script/path, an unknown op, and unparseable junk: one error
         response each, and the connection survives all three *)
      send_all fd (request ~id:"e1" ());
      send_all fd (request ~id:"e2" ~op:"frobnicate" ());
      send_all fd "this is not json\n";
      send_all fd (request ~id:"ok" ~op:"health" ());
      let lines = read_lines fd 4 in
      check_i "four responses" 4 (List.length lines);
      check_s "missing source is an error" "error"
        (status_of (response_for lines "e1"));
      check_s "unknown op is an error" "error"
        (status_of (response_for lines "e2"));
      check_s "daemon still serving" "ok"
        (status_of (response_for lines "ok")))

(* ---------- admission control ---------- *)

let test_overload_shed () =
  with_server "shed"
    (fun bind ->
      { (Serve.default_config bind) with
        Serve.jobs = 1; queue_cap = 2 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let n = 12 in
      let payload = Buffer.create 1024 in
      for i = 1 to n do
        Buffer.add_string payload
          (bomb_request ~id:(Printf.sprintf "f%d" i) ~timeout_s:0.4)
      done;
      send_all fd (Buffer.contents payload);
      let lines = read_lines fd n in
      check_i "every request answered" n (List.length lines);
      let statuses =
        List.init n (fun i ->
            status_of (response_for lines (Printf.sprintf "f%d" (i + 1))))
      in
      List.iter
        (fun s ->
          check_b ("status classified: " ^ s) true
            (List.mem s [ "ok"; "degraded"; "overloaded"; "error" ]))
        statuses;
      let shed = List.length (List.filter (( = ) "overloaded") statuses) in
      check_b "queue bound sheds under flood" true (shed > 0);
      (* shed responses carry the backoff hint *)
      let shed_line =
        List.find (fun l -> status_of l = "overloaded") lines
      in
      check_b "retry_after_ms present" true
        (match Jsonl.int_field shed_line "retry_after_ms" with
        | Some ms -> ms >= 10 && ms <= 10_000
        | None -> false);
      (* the daemon survives the flood *)
      let fd2 = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
      send_all fd2 (request ~id:"alive" ~op:"health" ());
      check_s "daemon alive after flood" "ok"
        (status_of (response_for (read_lines fd2 1) "alive")))

(* ---------- per-request deadline isolation ---------- *)

let test_deadline_isolation () =
  with_server "deadline"
    (fun bind ->
      { (Serve.default_config bind) with
        Serve.jobs = 2 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (bomb_request ~id:"bomb" ~timeout_s:0.3);
      send_all fd (request ~id:"clean" ~script:piece_script ());
      let lines = read_lines fd 2 in
      check_i "both answered" 2 (List.length lines);
      let bomb = response_for lines "bomb" in
      (* the bomb's budget fired: either the engine skipped the phase it
         overran (report with failures) or the outer guard answered with a
         structured timeout — never silence, never a daemon crash *)
      check_b "bomb contained" true
        (List.mem (status_of bomb) [ "degraded"; "error" ]);
      let clean = response_for lines "clean" in
      check_s "neighbour unaffected" "ok" (status_of clean))

(* ---------- chaos containment at the socket edges ---------- *)

let serve_sites rate =
  [ ("serve.accept", rate); ("serve.read", rate); ("serve.write", rate);
    ("serve.queue", rate) ]

let test_chaos_flood () =
  (* the acceptance drill: all four serve.* probes firing at 10%, load at
     2x the queue bound — zero daemon crashes, every request answered,
     drain still exits 0 (checked by with_server) *)
  with_chaos { Chaos.seed = 7; rate = 0.0; site_rates = serve_sites 0.1 }
  @@ fun () ->
  with_server "chaos"
    (fun bind ->
      { (Serve.default_config bind) with Serve.jobs = 2; queue_cap = 4 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let n = 8 (* 2x queue_cap *) in
      let payload = Buffer.create 1024 in
      for i = 1 to n do
        Buffer.add_string payload
          (request ~id:(Printf.sprintf "c%d" i) ~script:piece_script ())
      done;
      send_all fd (Buffer.contents payload);
      let lines = read_lines fd n in
      check_i "every request answered under injection" n (List.length lines);
      for i = 1 to n do
        let s = status_of (response_for lines (Printf.sprintf "c%d" i)) in
        check_b
          (Printf.sprintf "c%d classified (%s)" i s)
          true
          (List.mem s [ "ok"; "degraded"; "overloaded"; "error" ])
      done)

let test_chaos_queue_fault_is_one_error () =
  (* a queue fault costs exactly the request it hit: rate 1.0 on
     serve.queue turns every deobfuscate request into a structured error,
     while control ops (never queued) still work *)
  with_chaos
    { Chaos.seed = 3; rate = 0.0; site_rates = [ ("serve.queue", 1.0) ] }
  @@ fun () ->
  with_server "qfault"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"q" ~script:piece_script ());
      send_all fd (request ~id:"h" ~op:"health" ());
      let lines = read_lines fd 2 in
      check_s "queue fault is a structured error" "error"
        (status_of (response_for lines "q"));
      check_s "fault kind reported" "queue-fault"
        (Option.value ~default:"?"
           (Jsonl.string_field (response_for lines "q") "kind"));
      check_s "daemon unaffected" "ok"
        (status_of (response_for lines "h")))

(* ---------- graceful drain ---------- *)

let test_drain_finishes_inflight () =
  with_temp_dir "drain" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.default_config (Serve.Unix_sock sock)) with
      Serve.jobs = 1 }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* a slow request keeps the single worker busy, and the trailing
         health op proves admission: request lines on one connection are
         processed in order, so once "hb" is answered, "w" was queued *)
      send_all fd (bomb_request ~id:"w" ~timeout_s:0.5);
      send_all fd (request ~id:"hb" ~op:"health" ());
      let lines = read_lines fd 1 in
      check_s "work request admitted" "ok"
        (status_of (response_for lines "hb"));
      Serve.stop server;
      (* the bomb's response echoes its padding, more than a socket buffer
         holds, so it is read while the daemon drains *)
      let lines = lines @ read_lines ~deadline_s:5.0 fd 1 in
      let code = Serve.wait server in
      check_i "drain exits 0" 0 code;
      (* the bomb was in flight at stop: drain waited out its deadline and
         still answered it (contained as degraded) before exiting *)
      check_s "in-flight request answered during drain" "degraded"
        (status_of (response_for lines "w"))

let test_shutdown_op () =
  with_temp_dir "shut" @@ fun dir ->
  let sock = Filename.concat dir "d.sock" in
  let metrics_out = Filename.concat dir "final-metrics.json" in
  let cfg =
    { (Serve.default_config (Serve.Unix_sock sock)) with
      Serve.jobs = 1;
      metrics_out = Some metrics_out }
  in
  match Serve.start cfg with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"r" ~script:piece_script ());
      send_all fd (request ~id:"bye" ~op:"shutdown" ());
      let lines = read_lines fd 2 in
      check_s "shutdown acknowledged" "ok"
        (status_of (response_for lines "bye"));
      check_s "queued work answered before exit" "ok"
        (status_of (response_for lines "r"));
      check_i "shutdown op drains to exit 0" 0 (Serve.wait server);
      (* telemetry flushed on drain *)
      check_b "metrics snapshot written" true (Sys.file_exists metrics_out);
      let snap =
        In_channel.with_open_bin metrics_out In_channel.input_all
      in
      check_b "snapshot counts the requests" true
        (match Jsonl.int_field snap "serve.requests" with
        | Some n -> n >= 1
        | None -> false)

(* ---------- warm piece cache ---------- *)

let test_warm_cache_identical_output () =
  with_server "warm"
    (fun bind -> { (Serve.default_config bind) with Serve.jobs = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (request ~id:"cold" ~script:piece_script ());
      send_all fd (request ~id:"hot" ~script:piece_script ());
      let lines = read_lines fd 2 in
      let cold = response_for lines "cold"
      and hot = response_for lines "hot" in
      let out l =
        match Jsonl.string_field l "output" with
        | Some o -> o
        | None -> Alcotest.fail "missing output"
      in
      check_s "warm output byte-identical to cold" (out cold) (out hot);
      (* the second request was answered from the worker's warm cache *)
      check_b "second request hit the piece cache" true
        (match Jsonl.int_field hot "cache_hits" with
        | Some n -> n >= 1
        | None -> false);
      (* and both match a direct cold engine run — the daemon path changes
         transport, not results *)
      let direct =
        (Deobf.Engine.run_guarded ~timeout_s:30.0 piece_script)
          .Deobf.Engine.result
          .Deobf.Engine.output
      in
      check_s "daemon output equals direct engine output" direct (out cold))

(* ---------- line framing ---------- *)

let test_reader_frames_lines () =
  let r, w = Unix.pipe () in
  Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) @@ fun () ->
  let reader = Jsonl.Reader.create () in
  (* in pieces the pipe holds, each read before the next is written *)
  let rec feed s =
    let n = min 4096 (String.length s) in
    send_all w (String.sub s 0 n);
    let rec drain got =
      if got < n then drain (got + Jsonl.Reader.read reader r)
    in
    drain 0;
    if n < String.length s then feed (String.sub s n (String.length s - n))
  in
  let rec lines acc =
    match Jsonl.Reader.next_line reader with
    | Some l -> lines (l :: acc)
    | None -> List.rev acc
  in
  feed "a\nbb";
  check_s "a line and a partial one" "a" (String.concat "|" (lines []));
  check_i "the partial line is pending" 2 (Jsonl.Reader.pending reader);
  (* a line longer than the buffer, split across reads, after the tail *)
  let long = String.make 200_000 'x' in
  feed ("b\n" ^ long);
  feed "\nc\n";
  check_b "every line whole, in order" true
    (lines [] = [ "bbb"; long; "c" ]);
  check_i "nothing pending" 0 (Jsonl.Reader.pending reader);
  feed "d\n";
  check_s "the buffer restarts after a long line" "d"
    (String.concat "|" (lines []))

(* ---------- request size bound ---------- *)

let too_large_bytes = (8 * 1024 * 1024) + 1

let test_too_large_refused () =
  with_server "large" Serve.default_config (fun sock _server ->
      let head = "{\"id\": \"big\", \"script\": \"" in
      let script_of len = head ^ String.make (len - String.length head) 'a' in
      List.iter
        (fun (what, input) ->
          let fd = connect sock in
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          send_all fd input;
          let lines = read_lines fd 1 in
          check_i (what ^ ": one response") 1 (List.length lines);
          let line = List.hd lines in
          check_s (what ^ ": refused") "error" (status_of line);
          check_s (what ^ ": as too-large") "too-large" (field line "kind");
          let buf = Bytes.create 16 in
          check_i (what ^ ": the connection is closed") 0
            (try Unix.read fd buf 0 16 with Unix.Unix_error _ -> 0);
          (* a new connection is served as before *)
          let fd2 = connect sock in
          Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
          send_all fd2 (request ~id:"after" ~script:piece_script ());
          check_s (what ^ ": the next connection is served") "ok"
            (status_of (response_for (read_lines fd2 1) "after")))
        [ (* one unterminated line one byte past the 8 MiB bound *)
          ("unterminated", script_of too_large_bytes);
          (* a whole request line 41 bytes past it *)
          ("terminated", script_of (too_large_bytes + 38) ^ "\"}\n") ])

(* ---------- the protocol is JSON ---------- *)

(* the escapes a standard encoder writes (Python's json.dumps) decode to
   the UTF-8 text, and the response is UTF-8 again *)
let test_escaped_non_ascii () =
  with_server "utf8" Serve.default_config (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd
        {|{"id": "u", "script": "$a = 'caf' + '\u00e9 \u4e2d \ud83d\ude00'\nWrite-Output $a"}
|};
      let r = response_for (read_lines fd 1) "u" in
      check_s "status ok" "ok" (status_of r);
      check_b "the response is UTF-8" true (String.is_valid_utf_8 r);
      let src = "$a = 'caf' + '\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80'\nWrite-Output $a" in
      let expected = snd (Deobf.Batch.run_source ~name:"req-1" src) in
      check_b "the text survives recovery" true
        (Pscommon.Strcase.contains ~needle:"caf\xc3\xa9 \xe4\xb8\xad" expected);
      check_s "output as Batch.run_source on the UTF-8 text" expected
        (field r "output"))

let test_spaced_op_is_health () =
  with_server "spaced" Serve.default_config (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd "{\"id\" : \"sp\" , \"op\" : \"health\"}\n";
      let r = response_for (read_lines fd 1) "sp" in
      check_s "status ok" "ok" (status_of r);
      check_s "answered as health" "health" (field r "op"))

(* there is no server-side file read: a request names its script inline *)
let test_path_refused () =
  with_server "path" Serve.default_config (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let path = Filename.concat (Filename.dirname sock) "secret.ps1" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "Write-Output 'secret'");
      send_all fd
        (Printf.sprintf "{\"id\": \"p\", \"path\": %s}\n"
           (Pscommon.Telemetry.json_string path));
      let r = response_for (read_lines fd 1) "p" in
      check_s "refused" "error" (status_of r);
      check_s "as bad-request" "bad-request" (field r "kind");
      check_b "the file is not read" true (Jsonl.string_field r "output" = None))

(* a line that is not a JSON object is answered at once and never takes a
   queue slot: with the one worker busy on a bomb, an 8 MiB line of [ is
   answered bad-request before the bomb, neither shed nor queued *)
let test_deep_line_refused () =
  with_server "deep"
    (fun bind ->
      { (Serve.default_config bind) with
        Serve.jobs = 1; queue_cap = 1 })
    (fun sock _server ->
      let fd = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      send_all fd (bomb_request ~id:"b1" ~timeout_s:1.5);
      send_all fd (bomb_request ~id:"b2" ~timeout_s:1.5);
      send_all fd (String.make (8 * 1024 * 1024) '[' ^ "\n");
      let lines = read_lines fd 3 in
      let position p =
        match List.find_index p lines with
        | Some i -> i
        | None -> Alcotest.fail "a line was not answered"
      in
      let deep = position (fun l -> Jsonl.int_field l "id" = Some 3) in
      let r = List.nth lines deep in
      check_s "refused" "error" (status_of r);
      check_s "as bad-request" "bad-request" (field r "kind");
      check_b "answered before the bomb in flight" true
        (deep < position (fun l -> field l "id" = "b1"));
      let fd2 = connect sock in
      Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
      send_all fd2 (request ~id:"alive" ~op:"health" ());
      check_s "the daemon keeps serving" "ok"
        (status_of (response_for (read_lines fd2 1) "alive")))

(* ---------- the client ---------- *)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [f ()] with stdout sent to a file: its result and the lines it printed *)
let capture_stdout f =
  let tmp = Filename.temp_file "client" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let text = read_file tmp in
  Sys.remove tmp;
  (r, List.filter (( <> ) "") (String.split_on_char '\n' text))

let test_client_roundtrip () =
  with_server "client" Serve.default_config (fun sock _server ->
      with_temp_dir "client-files" @@ fun dir ->
      let scripts =
        [ ("a.ps1", piece_script);
          ("b.ps1", "$a = 'x' + 'y'\nWrite-Output $a\n");
          ("c.ps1", "Wr`ite-Out`put ('he' + 'llo')\n") ]
      in
      let files =
        List.map
          (fun (name, src) ->
            let path = Filename.concat dir name in
            write_file path src;
            path)
          scripts
      in
      let out_dir = Filename.concat dir "out" in
      let code, lines =
        capture_stdout (fun () ->
            Deobf.Client.run ~rng_seed:1 ~out_dir ~addr:(Serve.Unix_sock sock)
              files)
      in
      check_i "exit 0" 0 code;
      check_i "one result line per file, then the summary" 4
        (List.length lines);
      List.iter2
        (fun line (name, src) ->
          check_s "result line in file order" (Filename.concat dir name)
            (field line "file");
          check_s (name ^ " done") "done" (field line "result");
          check_s (name ^ " output as Batch.run_source")
            (snd (Deobf.Batch.run_source ~name src))
            (read_file (Filename.concat out_dir name)))
        (List.filteri (fun i _ -> i < 3) lines)
        scripts;
      check_b "summary counts every file done" true
        (Jsonl.int_field (List.nth lines 3) "done" = Some 3))

let test_client_nested_out_dir () =
  with_server "client-nested" Serve.default_config (fun sock _server ->
      with_temp_dir "client-nested-files" @@ fun dir ->
      let file = Filename.concat dir "a.ps1" in
      write_file file piece_script;
      let out_dir = List.fold_left Filename.concat dir [ "a"; "b"; "c" ] in
      let code, lines =
        capture_stdout (fun () ->
            Deobf.Client.run ~rng_seed:1 ~out_dir ~addr:(Serve.Unix_sock sock)
              [ file ])
      in
      check_i "exit 0" 0 code;
      check_s "done" "done" (field (List.hd lines) "result");
      check_s "output written under the created directories"
        (snd (Deobf.Batch.run_source ~name:file piece_script))
        (read_file (Filename.concat out_dir "a.ps1")))

let test_client_connection_closed () =
  (* the daemon refuses the first file's line and closes the connection:
     the client reports that file and the next one, and exits 1 *)
  with_server "client-closed" Serve.default_config (fun sock _server ->
      with_temp_dir "client-closed-files" @@ fun dir ->
      let big = Filename.concat dir "big.ps1"
      and small = Filename.concat dir "small.ps1" in
      write_file big ("Write-Output '" ^ String.make 9_000_000 'a' ^ "'\n");
      write_file small piece_script;
      let code, lines =
        capture_stdout (fun () ->
            Deobf.Client.run ~rng_seed:1 ~addr:(Serve.Unix_sock sock)
              [ big; small ])
      in
      check_i "exit 1" 1 code;
      check_i "two result lines and the summary" 3 (List.length lines);
      List.iter2
        (fun line file ->
          check_s "file" file (field line "file");
          check_s "failed" "failed" (field line "result");
          check_s "reason" "connection closed" (field line "status"))
        (List.filteri (fun i _ -> i < 2) lines)
        [ big; small ];
      check_b "summary counts both failed" true
        (Jsonl.int_field (List.nth lines 2) "failed" = Some 2))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "health and metrics ops" `Quick test_health_and_metrics;
    Alcotest.test_case "malformed and unknown requests" `Quick
      test_malformed_and_unknown;
    Alcotest.test_case "overload sheds with retry hint" `Quick
      test_overload_shed;
    Alcotest.test_case "per-request deadline isolation" `Quick
      test_deadline_isolation;
    Alcotest.test_case "chaos flood: every request answered" `Quick
      test_chaos_flood;
    Alcotest.test_case "chaos queue fault costs one request" `Quick
      test_chaos_queue_fault_is_one_error;
    Alcotest.test_case "drain finishes in-flight work" `Quick
      test_drain_finishes_inflight;
    Alcotest.test_case "shutdown op flushes telemetry" `Quick
      test_shutdown_op;
    Alcotest.test_case "warm cache: byte-identical output" `Quick
      test_warm_cache_identical_output;
    Alcotest.test_case "line reader frames lines across reads" `Quick
      test_reader_frames_lines;
    Alcotest.test_case "too-large line refused, next connection served"
      `Quick test_too_large_refused;
    Alcotest.test_case "escaped non-ASCII request decodes to UTF-8" `Quick
      test_escaped_non_ascii;
    Alcotest.test_case "whitespace before a colon: health" `Quick
      test_spaced_op_is_health;
    Alcotest.test_case "path field refused" `Quick test_path_refused;
    Alcotest.test_case "deep line refused at once, daemon serving" `Quick
      test_deep_line_refused;
    Alcotest.test_case "client: every file answered as run_source" `Quick
      test_client_roundtrip;
    Alcotest.test_case "client: nested output directory created" `Quick
      test_client_nested_out_dir;
    Alcotest.test_case "client: closed connection fails the rest" `Quick
      test_client_connection_closed;
  ]
