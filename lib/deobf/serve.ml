(** Deobfuscation as a service: a hardened long-running daemon.

    One listener domain multiplexes connections with [select] and parses
    NDJSON request lines; a {!Pscommon.Pool.Service} of worker domains
    runs each request through {!Batch.run_source} — the same guarded
    engine, fault containment and semantic gate as a batch file.  The
    architectural invariants:

    {ul
    {- {e admission control}: the worker queue is bounded; a request that
       does not fit is answered with an explicit ["overloaded"] response
       (with a [retry_after_ms] hint) instead of queueing unboundedly;}
    {- {e per-request budgets}: each request's deadline starts at admission
       and is installed as the {!Pscommon.Guard} ambient deadline around
       the whole pipeline, so the engine's own deadline is cut to what is
       left of the request's budget — a request can time out, the daemon
       cannot;}
    {- {e fault containment}: any guard failure, chaos fault or worker
       exception becomes a structured error response; the worker recycles
       and the server never dies;}
    {- {e one response line per request line} — a client that sends [n]
       lines reads exactly [n] lines, whatever happened;}
    {- {e graceful drain}: on {!stop} (SIGTERM/SIGINT in {!run}, or the
       ["shutdown"] op) the listener stops accepting and reading, workers
       finish or deadline-out everything already queued, telemetry is
       flushed, and the loop exits 0.}} *)

module Guard = Pscommon.Guard
module Pool = Pscommon.Pool
module T = Pscommon.Telemetry
module Chaos = Pscommon.Chaos

type bind = Unix_sock of string | Tcp of string * int

let bind_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let parse_bind spec =
  match String.index_opt spec ':' with
  | None -> Ok (Unix_sock spec)  (* a bare path *)
  | Some i -> (
      let scheme = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match scheme with
      | "unix" when rest <> "" -> Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | Some j when j > 0 && j < String.length rest - 1 -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
              | _ -> Error ("invalid port: " ^ port))
          | _ -> Error ("expected tcp:HOST:PORT, got: " ^ spec))
      | _ -> Error ("expected unix:PATH or tcp:HOST:PORT, got: " ^ spec))

type config = {
  bind : bind;
  jobs : int;
  queue_cap : int;
  default_timeout_s : float;
  options : Engine.options;
  verify : bool;
  cache_cap : int;
  trace_dir : string option;
  trace_sample : int option;
  metrics_out : string option;
  metrics_addr : bind option;
  flight_dir : string option;
  grace_s : float;  (** watchdog patience past a request's deadline *)
  quarantine : bool;  (** adaptive rule quarantine (breakers on rollbacks) *)
}

let default_config bind =
  { bind; jobs = 1; queue_cap = 64; default_timeout_s = Batch.default_timeout_s;
    options = Engine.default_options;
    verify = false; cache_cap = 2048;
    trace_dir = None; trace_sample = None;
    metrics_out = None; metrics_addr = None; flight_dir = None;
    grace_s = 2.0; quarantine = true }

(* the largest budget a request may ask for *)
let max_timeout_s = 300.0

(* a request line longer than this is refused [too-large] *)
let max_request_bytes = 8 * 1024 * 1024

(* ---------- metrics ---------- *)

let m_requests = T.Metrics.counter "serve.requests"
let m_request_ms = T.Metrics.histogram "serve.request_ms"
let m_shed = T.Metrics.counter "serve.shed"
let m_errors = T.Metrics.counter "serve.errors"
let m_connections = T.Metrics.counter "serve.connections"
let m_accept_faults = T.Metrics.counter "serve.accept_faults"
let m_read_faults = T.Metrics.counter "serve.read_faults"
let m_write_faults = T.Metrics.counter "serve.write_faults"
let m_queue_faults = T.Metrics.counter "serve.queue_faults"
let m_scrapes = T.Metrics.counter "serve.scrapes"
let m_wedge_faults = T.Metrics.counter "serve.wedge_faults"

(* the admission EWMA, surfaced as a gauge so shed hints are observable *)
let m_ewma_ms = T.Metrics.gauge "serve.ewma_ms"

(* EWMA of request handling time, feeding the retry_after_ms hint in
   overload responses.  Process-wide and racy by design — a hint, not an
   SLA. *)
let avg_request_ms = Atomic.make 250.0

let note_request_ms ms =
  T.Metrics.observe m_request_ms ms;
  let old = Atomic.get avg_request_ms in
  (* a lost race loses one sample of smoothing, nothing else *)
  ignore (Atomic.compare_and_set avg_request_ms old ((0.8 *. old) +. (0.2 *. ms)));
  T.Metrics.set m_ewma_ms (int_of_float (Atomic.get avg_request_ms))

(* ---------- connections ---------- *)

type conn = {
  fd : Unix.file_descr;
  reader : Jsonl.Reader.t;  (* bytes read but not yet returned as lines *)
  send_mutex : Mutex.t;  (* listener (overload/health) and workers both write *)
  mutable closed : bool;
}

(* Deliver one response line.  The "serve.write" probe models a fault in
   the response path; containment here means the fault is {e counted} and
   the write still happens (one retry without the probe), so the
   one-line-per-request contract survives injection.  A real socket error
   (peer gone) closes the connection — the queued work for it still runs,
   its response is simply dropped on the floor like any dead client's. *)
let send conn line =
  if not conn.closed then begin
    Mutex.lock conn.send_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock conn.send_mutex)
      (fun () ->
        (try Chaos.probe "serve.write"
         with _ -> T.Metrics.incr m_write_faults);
        let data = line ^ "\n" in
        let n = String.length data in
        let rec go off =
          if off < n then
            go (off + Unix.write_substring conn.fd data off (n - off))
        in
        try go 0 with Unix.Unix_error _ | Sys_error _ -> conn.closed <- true)
  end

(* ---------- responses ---------- *)

let error_json ~id ~kind ~detail =
  T.Metrics.incr m_errors;
  Printf.sprintf "{\"id\": %s, \"status\": \"error\", \"kind\": %s, \"detail\": %s}"
    id
    (T.json_string kind)
    (T.json_string detail)

let overloaded_json ~id ~depth =
  T.Metrics.incr m_shed;
  let retry =
    Float.max 10.0
      (Float.min 10_000.0
         (Atomic.get avg_request_ms *. float_of_int (depth + 1)))
  in
  Printf.sprintf
    "{\"id\": %s, \"status\": \"overloaded\", \"reason\": \"queue\", \
     \"retry_after_ms\": %d}"
    id (int_of_float retry)

(* ---------- requests ---------- *)

type request = {
  rq_conn : conn;
  rq_script : string;
  rq_verify : bool;
  rq_trace : bool;  (* inline the request's trace events in the response *)
  rq_seq : int;
  rq_id : string;  (* already-rendered JSON value for the "id" field *)
  rq_tid : string;  (* trace id, allocated at admission *)
  rq_deadline : Guard.deadline;
  rq_answered : bool Atomic.t;
      (* one-response-per-request CAS: the worker and the watchdog can both
         try to answer (the watchdog wins a wedge, the worker wins a late
         finish); exactly one send happens either way *)
}

let respond req line =
  if Atomic.compare_and_set req.rq_answered false true then
    send req.rq_conn line

(* The worker-side request handler.  Totalised twice over: the pipeline
   inside is {!Batch.run_source} (already total), the outer
   {!Guard.protect} installs the request's admission-time deadline as the
   ambient budget (the engine's own deadline is min'd against it)
   and catches anything outside the pipeline, and the final [try] is the
   last-resort conversion of a response-rendering bug into an error
   response rather than a recycled-but-silent worker. *)
let handle cfg cache req =
  try
    let id = req.rq_id in
    (* two trace consumers: [trace_dir] takes every event of a sampled
       request as [req-<seq>.trace.jsonl], and a request line carrying
       ["trace": true] gets its newest events inlined in the response *)
    let inline = req.rq_trace in
    let sampled =
      cfg.trace_dir <> None && Batch.trace_sampled cfg.trace_sample req.rq_seq
    in
    (* everything the request records — trace events, flight dumps, its
       response — carries the trace id allocated at admission *)
    let record = inline || sampled in
    T.with_request_id ~record req.rq_tid @@ fun () ->
    T.Metrics.incr m_requests;
    let t0 = Unix.gettimeofday () in
    let response =
      Chaos.with_scope (Printf.sprintf "req-%d" req.rq_seq) @@ fun () ->
      (* the "serve.wedge" site models the failure the watchdog exists for:
         a worker stuck in a loop that never reaches a Guard checkpoint, so
         the cooperative deadline cannot fire.  The injected loop is
         {e bounded} (deadline + 3 grace windows — past the point where the
         supervisor must have declared the wedge) so chaos runs always
         terminate; a real wedge would spin forever and be abandoned. *)
      (match Chaos.probe "serve.wedge" with
      | () -> ()
      | exception _ ->
          T.Metrics.incr m_wedge_faults;
          let until = req.rq_deadline +. (3.0 *. cfg.grace_s) in
          while Unix.gettimeofday () < until do
            ignore (Sys.opaque_identity 0)
          done);
      (* a root span only when traced: a flight dump taken inside an
         untraced request then holds closed spans only *)
      (if record then
         T.span ~attrs:[ ("request", T.I req.rq_seq) ] "serve.request"
       else fun f -> f ())
      @@ fun () ->
      match
        Guard.protect ~deadline:req.rq_deadline (fun () ->
            (* the admission deadline is the request's one clock *)
            Batch.run_source ~options:cfg.options ~timeout_s:infinity ~cache
              ~verify:req.rq_verify
              ~name:(Printf.sprintf "req-%d" req.rq_seq) req.rq_script)
      with
      | Ok (outcome, output) ->
          let status =
            if outcome.Batch.failures = [] then "ok" else "degraded"
          in
          Printf.sprintf
            "{\"id\": %s, \"status\": %s, \"trace_id\": %s, \
             \"output\": %s, \"report\": %s}"
            id
            (T.json_string status)
            (T.json_string req.rq_tid)
            (T.json_string output)
            (Jsonl.oneline (Batch.outcome_to_json outcome))
      | Error failure ->
          (* a blown deadline is a flight-recorder trigger: dump the
             spans of the request that ran out of budget *)
          (match failure with
          | Guard.Timeout -> ignore (T.Flight.dump ~reason:"deadline" ())
          | _ -> ());
          error_json ~id ~kind:(Guard.failure_label failure)
            ~detail:(Guard.failure_to_string failure)
    in
    (match (cfg.trace_dir, T.current_trace ()) with
    | Some dir, Some trace when sampled ->
        let path =
          Filename.concat dir (Printf.sprintf "req-%d.trace.jsonl" req.rq_seq)
        in
        ignore
          (Guard.protect (fun () ->
               Out_channel.with_open_bin path (fun oc ->
                   Out_channel.output_string oc (T.to_jsonl trace))))
    | _ -> ());
    let response =
      let n = String.length response in
      match T.current_trace () with
      | Some trace when inline && n > 0 && response.[n - 1] = '}' ->
          (* splice the newest events into the already-rendered response *)
          String.sub response 0 (n - 1)
          ^ Printf.sprintf ", \"trace\": %s}"
              (T.events_to_json_array ~last:4096 trace)
      | _ -> response
    in
    respond req response;
    note_request_ms ((Unix.gettimeofday () -. t0) *. 1000.0)
  with e ->
    respond req
      (error_json ~id:req.rq_id ~kind:"internal"
         ~detail:(Printexc.to_string e));
    (* re-raise so the service pool counts the recycle (and dumps the
       domain's ring while it still holds the request's events) *)
    raise e

(* ---------- listener-side ops ---------- *)

let health_json ~id ~started ~service ~draining cfg =
  Printf.sprintf
    "{\"id\": %s, \"status\": \"ok\", \"op\": \"health\", \"state\": %s, \
     \"queue_depth\": %d, \"inflight\": %d, \"jobs\": %d, \"queue_cap\": %d, \
     \"uptime_s\": %.1f}"
    id
    (T.json_string (if draining then "draining" else "serving"))
    (Pool.Service.depth service)
    (Pool.Service.inflight service)
    cfg.jobs cfg.queue_cap
    (Unix.gettimeofday () -. started)

let metrics_json ~id ~cache =
  Printf.sprintf
    "{\"id\": %s, \"status\": \"ok\", \"op\": \"metrics\", \"cache\": %s, \
     \"dynamic\": %s, \"selfheal\": %s, \"metrics\": %s}"
    id
    (Batch.cache_json (Recover.Cache.stats cache))
    (Batch.dynamic_json ()) (Batch.selfheal_json ())
    (Jsonl.oneline (T.Metrics.snapshot_to_json (T.Metrics.snapshot ())))

(* ---------- sockets ---------- *)

let sockaddr = function
  | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.PF_INET, Unix.ADDR_INET (addr, port))

let open_socket bind =
  (match bind with
  | Unix_sock path -> (
      (* a stale socket file from a previous run would make bind fail *)
      try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  let fail e =
    Error
      (Printf.sprintf "bind %s: %s" (bind_to_string bind)
         (Printexc.to_string e))
  in
  match sockaddr bind with
  | exception e -> fail e
  | domain, addr -> (
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      try
        if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd addr;
        Unix.listen fd 64;
        Ok fd
      with e ->
        (try Unix.close fd with _ -> ());
        fail e)

(* ---------- the metrics scrape endpoint ---------- *)

(* A deliberately minimal HTTP/1.1 GET handler on its own listener (and
   its own domain), so a Prometheus scrape never contends with request
   admission: the main loop's select set, accept backlog and worker queue
   are untouched by scrapes, and a slow scraper can at worst slow other
   scrapers.  One request per connection ([Connection: close]) keeps the
   loop allocation-free of connection state. *)

let http_response ~status body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: text/plain; version=0.0.4; \
     charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

let scrape_response head =
  let request_line =
    match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  match String.split_on_char ' ' request_line with
  | "GET" :: path :: _
    when path = "/metrics" || String.starts_with ~prefix:"/metrics?" path ->
      T.Metrics.incr m_scrapes;
      http_response ~status:"200 OK"
        (T.Metrics.to_prometheus (T.Metrics.snapshot ()))
  | _ -> http_response ~status:"404 Not Found" "not found\n"

(* read the request head (bounded, short deadline), answer, close — total:
   a malformed or stalled scraper costs its own connection, nothing else *)
let serve_scrape fd =
  (try
     let buf = Buffer.create 512 in
     let chunk = Bytes.create 4096 in
     let deadline = Unix.gettimeofday () +. 2.0 in
     let rec read_head () =
       (* the request line is all we parse; stop at its newline *)
       if
         Buffer.length buf < 8192
         && not (String.contains (Buffer.contents buf) '\n')
       then begin
         let remaining = deadline -. Unix.gettimeofday () in
         if remaining > 0.0 then
           match Unix.select [ fd ] [] [] remaining with
           | [ _ ], _, _ -> (
               match Unix.read fd chunk 0 (Bytes.length chunk) with
               | 0 -> ()
               | n ->
                   Buffer.add_subbytes buf chunk 0 n;
                   read_head ()
               | exception Unix.Unix_error _ -> ())
           | _ -> ()
       end
     in
     read_head ();
     let response = scrape_response (Buffer.contents buf) in
     let data = Bytes.of_string response in
     let len = Bytes.length data in
     let rec write_all off =
       if off < len then
         match Unix.write fd data off (len - off) with
         | n when n > 0 -> write_all (off + n)
         | _ -> ()
     in
     write_all 0
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let metrics_loop stop listen_fd =
  while not (Atomic.get stop) do
    match Unix.select [ listen_fd ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [ _ ], _, _ -> (
        match Unix.accept listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> serve_scrape fd)
    | _ -> ()
  done;
  try Unix.close listen_fd with Unix.Unix_error _ -> ()

(* ---------- the serve loop ---------- *)

let serve_loop cfg stop listen_fd =
  (* a client that disconnects mid-response must cost an EPIPE errno, not
     a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let started = Unix.gettimeofday () in
  (* enable the flight recorder before any worker spawns so every domain
     records from its first request *)
  Option.iter (fun dir -> T.Flight.set_sink (Some dir)) cfg.flight_dir;
  (* the rule quarantine is daemon-scoped policy: configure it before any
     worker spawns *)
  Quarantine.set_enabled cfg.quarantine;
  (* one warm cache for the whole process, shared by every worker domain
     ({!Recover.Cache} is mutex-guarded): a decode piece recovered, or a
     reference log verified, for one request is a hit for every later
     request, whichever worker runs it *)
  let cache = Recover.Cache.create ~cap:cfg.cache_cap () in
  (* the watchdog: answer a wedged request from the supervisor domain (the
     CAS in [respond] keeps the one-line-per-request contract if the worker
     somehow finishes late) *)
  let supervise =
    { Pool.Service.sv_grace_s = cfg.grace_s;
      sv_deadline_of = (fun req -> req.rq_deadline);
      sv_describe = (fun req -> Printf.sprintf "req-%d" req.rq_seq);
      sv_on_wedged =
        (fun req ->
          respond req
            (error_json ~id:req.rq_id
               ~kind:(Guard.failure_label Guard.Wedged)
               ~detail:(Guard.failure_to_string Guard.Wedged))) }
  in
  let service =
    Pool.Service.create ~jobs:cfg.jobs ~queue_cap:cfg.queue_cap ~supervise
      (handle cfg cache)
  in
  (* the scrape endpoint listens on its own socket in its own domain —
     scrapes never touch the admission path.  It gets its OWN stop flag:
     [stop] starts the drain, but the daemon must stay observable while
     it drains, so the scrape loop is stopped only after the drain is
     done *)
  let metrics_stop = Atomic.make false in
  let metrics_listener =
    match cfg.metrics_addr with
    | None -> None
    | Some addr -> (
        match open_socket addr with
        | Error e ->
            T.Log.warn (fun () -> "metrics endpoint: " ^ e);
            None
        | Ok fd ->
            T.Log.info (fun () ->
                "metrics endpoint on " ^ bind_to_string addr);
            Some (addr, Domain.spawn (fun () -> metrics_loop metrics_stop fd)))
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let seq = ref 0 in
  let close_conn conn =
    conn.closed <- true;
    Hashtbl.remove conns conn.fd;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  let accept_new () =
    match Chaos.probe "serve.accept" with
    | exception _ ->
        (* contained: the pending connection stays in the kernel backlog
           and select reports it again next round — delayed, not lost *)
        T.Metrics.incr m_accept_faults
    | () -> (
        match Unix.accept listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
            T.Metrics.incr m_connections;
            Hashtbl.replace conns fd
              { fd; reader = Jsonl.Reader.create ();
                send_mutex = Mutex.create (); closed = false })
  in
  (* one parse per line: the listener reads every field here, and the
     worker gets the script, never the line *)
  let process_request conn fields =
    let get conv k = Option.bind (List.assoc_opt k fields) conv in
    (* the client's id is echoed verbatim (string or integer); without one
       the server's own sequence number keeps responses matchable *)
    let id =
      match (get Jsonl.to_string "id", get Jsonl.to_int "id") with
      | Some s, _ -> T.json_string s
      | None, Some n -> string_of_int n
      | None, None -> string_of_int !seq
    in
    match Option.value ~default:"deobfuscate" (get Jsonl.to_string "op") with
    | "health" ->
        send conn
          (health_json ~id ~started ~service ~draining:(Atomic.get stop) cfg)
    | "metrics" -> send conn (metrics_json ~id ~cache)
    | "shutdown" ->
        send conn
          (Printf.sprintf "{\"id\": %s, \"status\": \"ok\", \"op\": \"shutdown\"}" id);
        Atomic.set stop true
    | "deobfuscate" -> (
        match get Jsonl.to_string "script" with
        | None ->
            send conn (error_json ~id ~kind:"bad-request" ~detail:"missing \"script\"")
        | Some script -> (
            let timeout_s =
              Float.min max_timeout_s
                (Option.value ~default:cfg.default_timeout_s
                   (get Jsonl.to_float "timeout_s"))
            in
            let req =
              { rq_conn = conn; rq_script = script;
                rq_verify =
                  Option.value ~default:cfg.verify (get Jsonl.to_bool "verify");
                rq_trace = get Jsonl.to_bool "trace" = Some true;
                rq_seq = !seq; rq_id = id;
                rq_tid = T.new_trace_id ();
                (* the budget starts at admission: time spent queued is part
                   of the request's deadline, which also bounds drain *)
                rq_deadline = Guard.deadline_after timeout_s;
                rq_answered = Atomic.make false }
            in
            match Chaos.probe "serve.queue" with
            | exception e ->
                (* an injected queue fault costs this one request a
                   structured error, nothing more — and, as a containment
                   event, triggers a flight-recorder dump *)
                T.Metrics.incr m_queue_faults;
                ignore (T.Flight.dump ~reason:"chaos-queue-fault" ());
                send conn
                  (error_json ~id ~kind:"queue-fault"
                     ~detail:(Printexc.to_string e))
            | () ->
                if not (Pool.Service.submit service req) then
                  send conn
                    (overloaded_json ~id ~depth:(Pool.Service.depth service))))
    | other ->
        send conn (error_json ~id ~kind:"bad-request" ~detail:("unknown op: " ^ other))
  in
  let process_line conn line =
    if String.trim line <> "" then begin
      incr seq;
      match Jsonl.parse line with
      | Some (Jsonl.Object fields) -> process_request conn fields
      | _ ->
          (* answered at once: a line that is not a JSON object never
             takes a queue slot *)
          send conn
            (error_json ~id:(string_of_int !seq) ~kind:"bad-request"
               ~detail:"not a well-formed JSON object")
    end
  in
  (* refuse a request line over the bound, terminated or not, and close
     the connection: a flood of bytes cannot grow memory *)
  let too_large conn =
    incr seq;
    send conn
      (error_json ~id:(string_of_int !seq) ~kind:"too-large"
         ~detail:(Printf.sprintf "request line exceeds %d bytes" max_request_bytes));
    close_conn conn
  in
  let read_conn conn =
    match Chaos.probe "serve.read" with
    | exception _ ->
        (* contained: no bytes were consumed, so the request is intact and
           select re-fires next round — delayed, not lost *)
        T.Metrics.incr m_read_faults
    | () -> (
        match Jsonl.Reader.read conn.reader conn.fd with
        | exception Unix.Unix_error _ -> close_conn conn
        | 0 -> close_conn conn
        | _ ->
            let rec drain_lines () =
              match Jsonl.Reader.next_line conn.reader with
              | Some line when String.length line > max_request_bytes ->
                  too_large conn
              | Some line ->
                  process_line conn line;
                  drain_lines ()
              | None ->
                  if Jsonl.Reader.pending conn.reader > max_request_bytes then
                    too_large conn
            in
            drain_lines ())
  in
  T.Log.info (fun () -> "serving on " ^ bind_to_string cfg.bind);
  while not (Atomic.get stop) do
    let fds =
      listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if Atomic.get stop then ()
            else if fd = listen_fd then accept_new ()
            else
              match Hashtbl.find_opt conns fd with
              | Some conn -> read_conn conn
              | None -> ())
          ready
  done;
  (* graceful drain: stop accepting and reading (the loop above is done),
     finish everything already queued — each request bounded by its own
     admission-time deadline — then flush telemetry and release sockets *)
  T.Log.info (fun () ->
      Printf.sprintf "draining: %d queued, %d in flight"
        (Pool.Service.depth service)
        (Pool.Service.inflight service));
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Pool.Service.shutdown service;
  (* the quarantine flag is process-global: restore the disabled default
     so an embedding process (tests, benches) gets batch semantics back *)
  Quarantine.set_enabled false;
  (match cfg.metrics_out with
  | None -> ()
  | Some path ->
      ignore
        (Guard.protect (fun () ->
             Out_channel.with_open_bin path (fun oc ->
                 Out_channel.output_string oc
                   (T.Metrics.snapshot_to_json (T.Metrics.snapshot ()));
                 Out_channel.output_char oc '\n'))));
  T.Log.info (fun () ->
      Printf.sprintf "drained: %d request(s) served, %d shed, %d error(s)"
        (T.Metrics.counter_value m_requests)
        (T.Metrics.counter_value m_shed)
        (T.Metrics.counter_value m_errors));
  Hashtbl.iter (fun _ conn -> conn.closed <- true;
                 try Unix.close conn.fd with Unix.Unix_error _ -> ()) conns;
  Hashtbl.reset conns;
  (match cfg.bind with
  | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ());
  (* only now stop the metrics listener: it kept serving scrapes through
     the whole drain above; release its socket last *)
  Atomic.set metrics_stop true;
  (match metrics_listener with
  | None -> ()
  | Some (addr, d) ->
      Domain.join d;
      (match addr with
      | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ()));
  0

(* the loop is expected total; this backstop turns an unexpected listener
   crash into exit 1 with the sockets released instead of a raw exception *)
let serve_total cfg stop listen_fd =
  try serve_loop cfg stop listen_fd
  with e ->
    T.Log.error (fun () -> "serve loop crashed: " ^ Printexc.to_string e);
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (match cfg.bind with
    | Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    1

(* ---------- lifecycle ---------- *)

type server = { s_stop : bool Atomic.t; s_domain : int Domain.t }

let start cfg =
  match open_socket cfg.bind with
  | Error e -> Error e
  | Ok listen_fd ->
      let stop = Atomic.make false in
      Ok
        { s_stop = stop;
          s_domain = Domain.spawn (fun () -> serve_total cfg stop listen_fd) }

let stop s = Atomic.set s.s_stop true
let wait s = Domain.join s.s_domain

let run cfg =
  match open_socket cfg.bind with
  | Error e ->
      T.Log.error (fun () -> e);
      prerr_endline ("serve: " ^ e);
      1
  | Ok listen_fd ->
      let stop = Atomic.make false in
      let request_stop _ = Atomic.set stop true in
      (try
         Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
         Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop)
       with Invalid_argument _ | Sys_error _ -> ());
      serve_total cfg stop listen_fd
