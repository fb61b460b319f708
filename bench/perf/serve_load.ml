(** Load for the [serve] workload: the CLI daemon with one worker, driven
    by one client connection from a single-domain [select] loop.  After a
    warm-up come [passes] passes over the same requests, each an open loop
    at a fixed rate and then a closed loop with a fixed number outstanding;
    responses are matched by [id].  The passes run in segments, and between
    two segments, with nothing in flight, the host's speed is calibrated
    (see [Calib]). *)

let now = Unix.gettimeofday
let rate = 300.0  (* open-loop requests per second *)

(* Each request counts with the median of its times in the passes.  About
   one request in 200 stalls for 10-25 ms in one pass and not in the
   others, at no fixed place, and holds up the requests queued behind it;
   the stalls and the requests they held up filled the slowest 1%, so in
   a single pass they, not the program, set p99, which spread by 28% over
   eight seeds.  In the median of four passes a stall counts only where it
   struck the same request twice. *)
let passes = 4

(* The open loops take this share of a run, which at 15 s gives each pass
   the 1 000 requests a p99 needs for ten beyond it. *)
let open_share = 0.9

let open_requests ~seconds =
  int_of_float (Float.round (open_share *. seconds /. float_of_int passes *. rate))

(* Each pass's closed loop sends half as many, which at the daemon's
   service rate takes about a tenth of the time of its open loop. *)
let closed_requests ~seconds = open_requests ~seconds / 2

(* With two outstanding, throughput followed how the two cores happened to
   host the client and the daemon's listener and worker, and was bimodal
   across seeds (spread 28%); with eight the worker always has work queued
   and throughput is its service rate (spread 11%). *)
let closed_outstanding = 8

(* Requests per segment: half a second of the open loop. *)
let segment = 150

(* Kernel runs between two segments. *)
let calibrations = 3

(* A request unanswered this long after the last send counts as failed. *)
let answer_grace_s = 30.0

type phase = Warmup | Open | Closed

type request = {
  id : int;
  script : int;  (** index into the distinct scripts *)
  phase : phase;
  due : float;  (** when the schedule said to send it (open loop) *)
  mutable sent : float;
  mutable answered : float;  (** [nan] while unanswered *)
  mutable line : string;  (** the raw response *)
}

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  chunk : Bytes.t;
  pending : (int, request) Hashtbl.t;
  mutable control : string list;  (** responses to non-numeric ids *)
}

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Connect, retrying while the daemon is still binding its socket. *)
let connect sock ~deadline =
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.0005;
        go ()
  in
  let fd = go () in
  { fd; rbuf = Buffer.create 65536; chunk = Bytes.create 65536;
    pending = Hashtbl.create 4096; control = [] }

(* Take every complete line out of the read buffer.  Only the [id] is
   parsed now; the rest waits until the load has stopped. *)
let drain_lines c =
  let data = Buffer.contents c.rbuf in
  match String.rindex_opt data '\n' with
  | None -> ()
  | Some last ->
      let at = now () in
      Buffer.clear c.rbuf;
      Buffer.add_substring c.rbuf data (last + 1) (String.length data - last - 1);
      List.iter
        (fun line ->
          if line <> "" then
            match Deobf.Jsonl.int_field line "id" with
            | Some id -> (
                match Hashtbl.find_opt c.pending id with
                | Some r ->
                    Hashtbl.remove c.pending id;
                    r.answered <- at;
                    r.line <- line
                | None -> ())
            | None -> c.control <- line :: c.control)
        (String.split_on_char '\n' (String.sub data 0 last))

(* Wait up to [timeout] seconds for the socket; read what is there. *)
let poll c timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> false
  | _ -> (
      match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> failwith "daemon closed the connection"
      | n ->
          Buffer.add_subbytes c.rbuf c.chunk 0 n;
          drain_lines c;
          true)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let control c ~deadline line op =
  send_all c.fd line;
  let has_op l = Deobf.Jsonl.string_field l "op" = Some op in
  let rec wait () =
    match List.find_opt has_op c.control with
    | Some l ->
        c.control <- List.filter (fun x -> x != l) c.control;
        l
    | None ->
        if now () > deadline then failwith ("no reply to " ^ op);
        ignore (poll c (deadline -. now ()));
        wait ()
  in
  wait ()

(* Piece-cache capacity: the pool's distinct pieces fit, so after the
   warm-up the daemon answers from the cache, which is what this workload
   is for.  At the default 2048 the cache thrashed, and over ten runs of one
   seed p99 spread by 52%, against 9% with this capacity. *)
let cache_cap = 16384

(* Quarantine is off, so that every answer for a script is the same and
   equals the batch output, as the checks require.  With it on, repeated
   requests for a script whose edits the gate rolls back trip a rule-wide
   breaker, and from then on other scripts come back with different outputs
   than before: the check failed within the run on both seeds tried. *)
let daemon_args sock =
  [ "deobfuscate"; "--serve"; "unix:" ^ sock; "--jobs"; "1"; "--verify";
    "--queue-cap"; "256"; "--no-quarantine"; "--cache-cap";
    string_of_int cache_cap ]

type daemon = { proc : Proc.t; conn : conn }

let deadline_of s = now () +. s

(* Start a daemon and wait for its first [health] reply; returns the
   seconds that took. *)
let start ~cli ~sock =
  let proc = Proc.spawn cli (daemon_args sock) in
  let conn = connect sock ~deadline:(deadline_of 60.0) in
  ignore
    (control conn ~deadline:(deadline_of 60.0) "{\"op\":\"health\",\"id\":\"h\"}\n"
       "health");
  (now () -. proc.Proc.started, { proc; conn })

let stop d =
  ignore
    (control d.conn ~deadline:(deadline_of 60.0) "{\"op\":\"shutdown\",\"id\":\"s\"}\n"
       "shutdown");
  let r = Proc.finish d.proc ~deadline:(deadline_of 60.0) in
  Unix.close d.conn.fd;
  match r with Ok () -> () | Error e -> failwith ("daemon: " ^ e)

type pass = {
  opened : request list;  (** the open loop's requests, in send order *)
  closed : request list;
  closed_windows : (float * float) list;
      (** per closed segment, its first send and last answer *)
}

type run = {
  warmup : request list;
  passes : pass list;
  peak_rss_kb : float;
  cache_hits : int;
  cache_lookups : int;
}

(* [lines.(i)] is the tail of a request for script [i], from the script
   field on, rendered before the load starts.  [warm] is the warm-up order;
   [open_] and [closed] are the scripts the two measured phases request. *)
let run d ~cal ~lines ~warm ~open_ ~closed =
  let c = d.conn in
  let sent = ref [] in
  let next_id = ref 0 in
  let sent_since () =
    let l = List.rev !sent in
    sent := [];
    l
  in
  let send phase due script =
    incr next_id;
    let r =
      { id = !next_id; script; phase; due; sent = nan; answered = nan; line = "" }
    in
    Hashtbl.replace c.pending r.id r;
    r.sent <- now ();
    send_all c.fd (Printf.sprintf "{\"id\":%d,%s" r.id lines.(script));
    sent := r :: !sent
  in
  (* every request answered, or the grace after the last send has run out *)
  let settle () =
    let give_up = now () +. answer_grace_s in
    while Hashtbl.length c.pending > 0 && now () < give_up do
      ignore (poll c (give_up -. now ()))
    done
  in
  let open_loop scripts =
    let t0 = now () in
    Array.iteri
      (fun k script ->
        let due = t0 +. (float_of_int k /. rate) in
        while now () < due do
          ignore (poll c (due -. now ()))
        done;
        send Open due script)
      scripts;
    settle ()
  in
  (* keep [closed_outstanding] requests in flight until [scripts] runs dry;
     returns when the first was sent and the last answered *)
  let closed_loop phase scripts =
    let t0 = now () in
    let at = ref 0 in
    while !at < Array.length scripts do
      while !at < Array.length scripts && Hashtbl.length c.pending < closed_outstanding do
        send phase t0 scripts.(!at);
        incr at
      done;
      ignore (poll c 1.0)
    done;
    settle ();
    (t0, now ())
  in
  let segmented f scripts =
    let n = Array.length scripts in
    List.init ((n + segment - 1) / segment) (fun i ->
        let r = f (Array.sub scripts (i * segment) (min segment (n - (i * segment)))) in
        for _ = 1 to calibrations do
          Calib.ping cal
        done;
        r)
  in
  (* Warm-up: every script of the pool once, in a seeded order, so the
     measured phases hold no first sightings.  First sightings cost up to
     80 ms, and whether the rare heavy ones fell inside the measurement
     decided p99 more than the program did. *)
  ignore (closed_loop Warmup warm);
  let warmup = sent_since () in
  for _ = 1 to calibrations do
    Calib.ping cal
  done;
  let passes =
    List.init passes (fun _ ->
        ignore (segmented open_loop open_);
        let opened = sent_since () in
        let closed_windows = segmented (closed_loop Closed) closed in
        { opened; closed = sent_since (); closed_windows })
  in
  let metrics =
    control c ~deadline:(deadline_of 60.0) "{\"op\":\"metrics\",\"id\":\"m\"}\n" "metrics"
  in
  let peak_rss_kb = Proc.vm_hwm_kb (string_of_int d.proc.Proc.pid) in
  let field k = Option.value ~default:0 (Deobf.Jsonl.int_field metrics k) in
  { warmup; passes; peak_rss_kb; cache_hits = field "hits"; cache_lookups = field "lookups" }
