(** NDJSON client for the serve daemon.  See the interface for the
    contract. *)

module Guard = Pscommon.Guard
module T = Pscommon.Telemetry

type result_kind = Done | Shed | Failed

type file_result = {
  r_file : string;
  r_kind : result_kind;
  r_status : string;  (* final response status, or a transport reason *)
  r_attempts : int;  (* submission attempts (1 = no retry needed) *)
  r_wall_ms : float;
  r_output_file : string option;
}

(* ---------- transport ---------- *)

let connect addr =
  let fail e =
    Error
      (Printf.sprintf "connect %s: %s" (Serve.bind_to_string addr)
         (Printexc.to_string e))
  in
  match Serve.sockaddr addr with
  | exception e -> fail e
  | domain, sockaddr -> (
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      try
        Unix.connect fd sockaddr;
        Ok fd
      with e ->
        (try Unix.close fd with _ -> ());
        fail e)

let send_line fd line =
  let data = line ^ "\n" in
  let n = String.length data in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd data off (n - off))
  in
  go 0

(* The next response line; [None] once the daemon is gone. *)
let read_line fd reader =
  let rec go () =
    match Jsonl.Reader.next_line reader with
    | Some line -> Some line
    | None -> (
        match Jsonl.Reader.read reader fd with
        | 0 -> None
        | _ -> go ()
        | exception Unix.Unix_error _ -> None)
  in
  go ()

let connection_closed = "connection closed"

(* ---------- retry policy ---------- *)

(* Jittered exponential backoff on shed: the server's [retry_after_ms] is
   the base, doubled per attempt, scaled by a uniform [0.5, 1.5) jitter so
   a herd of shed clients does not re-arrive in lockstep. *)
let backoff_ms rng ~retry_after_ms ~attempt =
  let base = float_of_int (max 1 retry_after_ms) in
  let exp = base *. Float.pow 2.0 (float_of_int attempt) in
  let jitter = 0.5 +. Random.State.float rng 1.0 in
  Float.min 30_000.0 (exp *. jitter)

(* ---------- one file ---------- *)

let request_line ~id ~timeout_s ~verify src =
  String.concat ""
    [ Printf.sprintf "{\"id\": %d, \"script\": %s" id (T.json_string src);
      (match timeout_s with
      | Some t -> Printf.sprintf ", \"timeout_s\": %g" t
      | None -> "");
      (match verify with
      | Some v -> Printf.sprintf ", \"verify\": %b" v
      | None -> "");
      "}" ]

let submit_file ~fd ~reader ~rng ~max_retries ~timeout_s ~verify ~out_dir
    ~id file =
  let started = Guard.now () in
  let finish ?output_file kind status attempts =
    { r_file = file; r_kind = kind; r_status = status; r_attempts = attempts;
      r_wall_ms = (Guard.now () -. started) *. 1000.0;
      r_output_file = output_file }
  in
  match
    Guard.protect (fun () ->
        In_channel.with_open_bin file In_channel.input_all)
  with
  | Error failure ->
      finish Failed ("read: " ^ Guard.failure_to_string failure) 0
  | Ok src ->
      let line = request_line ~id ~timeout_s ~verify src in
      let rec attempt n =
        (* responses arrive in submission order on this connection (one
           request in flight at a time); skip any line whose id is not
           ours anyway, defensively *)
        let rec await () =
          match read_line fd reader with
          | None -> finish Failed connection_closed n
          | Some resp -> (
              match Jsonl.parse resp with
              | Some (Jsonl.Object fields)
                when Option.bind (List.assoc_opt "id" fields) Jsonl.to_int
                     = Some id ->
                  answer fields
              | _ -> await ())
        and answer fields =
          let get conv k = Option.bind (List.assoc_opt k fields) conv in
          let status =
            Option.value ~default:"?" (get Jsonl.to_string "status")
          in
          if String.equal status "overloaded" then begin
            if n > max_retries then finish Shed "overloaded" n
            else begin
              let retry_after_ms =
                Option.value ~default:100 (get Jsonl.to_int "retry_after_ms")
              in
              let delay = backoff_ms rng ~retry_after_ms ~attempt:(n - 1) in
              Unix.sleepf (delay /. 1000.0);
              attempt (n + 1)
            end
          end
          else if String.equal status "ok" || String.equal status "degraded"
          then begin
            let output =
              Option.value ~default:"" (get Jsonl.to_string "output")
            in
            match out_dir with
            | None -> finish Done status n
            | Some dir -> (
                let path = Filename.concat dir (Filename.basename file) in
                match
                  Guard.protect (fun () ->
                      Out_channel.with_open_bin path (fun oc ->
                          Out_channel.output_string oc output))
                with
                | Ok () -> finish ~output_file:path Done status n
                | Error failure ->
                    finish Failed
                      ("write: " ^ Guard.failure_to_string failure)
                      n)
          end
          else
            (* a structured error ("wedged", "timeout", …) is a final
               answer: the daemon contained the failure; retrying the
               same input would most likely fail the same way *)
            finish Failed
              (Option.value ~default:status (get Jsonl.to_string "kind"))
              n
        in
        (* the daemon closes a connection whose line it refuses: EPIPE *)
        match send_line fd line with
        | () -> await ()
        | exception Unix.Unix_error _ -> finish Failed connection_closed n
      in
      attempt 1

(* ---------- the driver ---------- *)

let result_json r =
  Printf.sprintf
    "{\"file\": %s, \"result\": %s, \"status\": %s, \"attempts\": %d, \
     \"wall_ms\": %.1f, \"output_file\": %s}"
    (T.json_string r.r_file)
    (T.json_string
       (match r.r_kind with
       | Done -> "done"
       | Shed -> "shed"
       | Failed -> "failed"))
    (T.json_string r.r_status)
    r.r_attempts r.r_wall_ms
    (match r.r_output_file with
    | Some p -> T.json_string p
    | None -> "null")

let run ?(max_retries = 5) ?timeout_s ?verify ?out_dir ?rng_seed ~addr files =
  let rng =
    Random.State.make
      [| (match rng_seed with
         | Some s -> s
         | None -> Unix.getpid () lxor int_of_float (Unix.gettimeofday () *. 1e6))
      |]
  in
  (* mkdir -p, as --batch does; a failure shows as each file's write error *)
  Option.iter (fun dir -> ignore (Guard.protect (fun () -> Batch.ensure_dir dir)))
    out_dir;
  match connect addr with
  | Error e ->
      prerr_endline ("client: " ^ e);
      1
  | Ok fd ->
      (* a write to a closed connection must fail as EPIPE, not kill the
         process *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ | Sys_error _ -> ());
      let reader = Jsonl.Reader.create () in
      let closed = ref false in
      let results =
        List.mapi
          (fun i file ->
            let r =
              if !closed then
                { r_file = file; r_kind = Failed; r_status = connection_closed;
                  r_attempts = 0; r_wall_ms = 0.0; r_output_file = None }
              else
                submit_file ~fd ~reader ~rng ~max_retries ~timeout_s ~verify
                  ~out_dir ~id:(i + 1) file
            in
            closed := String.equal r.r_status connection_closed;
            print_endline (result_json r);
            r)
          files
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let count k = List.length (List.filter (fun r -> r.r_kind = k) results) in
      let succeeded = count Done and shed = count Shed and failed = count Failed in
      Printf.printf
        "{\"total\": %d, \"done\": %d, \"shed\": %d, \"failed\": %d}\n"
        (List.length results) succeeded shed failed;
      if failed > 0 || shed > 0 then 1 else 0
