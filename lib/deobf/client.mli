(** NDJSON client for the serve daemon: submit files over a socket with
    retry-aware backpressure handling — the client half of the admission
    control contract.

    Each file is sent as one [{"id":…, "script":…}] request line; the
    matching response line is awaited before the next file is sent (one
    request in flight per connection).  An ["overloaded"] response is
    honoured by sleeping the server's [retry_after_ms] hint scaled by
    jittered exponential backoff ([retry_after_ms * 2^attempt * U(0.5,1.5)],
    capped at 30 s) and retrying, up to [max_retries] attempts; a herd of
    shed clients therefore de-synchronizes instead of re-arriving in
    lockstep.  Structured errors (["wedged"], ["timeout"], …) are final:
    the daemon already contained the failure, so the same input would fail
    the same way.

    When the daemon closes the connection (it refuses a request line
    longer than 8 MiB that way), the file being sent and every later one
    fail with status ["connection closed"]; SIGPIPE is ignored, so the
    client still reports them.

    One NDJSON result line is printed per file, then a one-line summary
    object.  Exit code 0 when every file was answered ["ok"] or
    ["degraded"]; 1 when any was shed past the retry budget, failed, or
    the connection could not be established. *)

type result_kind = Done | Shed | Failed

type file_result = {
  r_file : string;
  r_kind : result_kind;
  r_status : string;
      (** final response status or error kind, or a transport reason *)
  r_attempts : int;  (** submission attempts; 1 means no retry was needed *)
  r_wall_ms : float;
  r_output_file : string option;
}

val backoff_ms : Random.State.t -> retry_after_ms:int -> attempt:int -> float
(** The jittered exponential backoff schedule (exposed for tests):
    [retry_after_ms * 2^attempt * U(0.5, 1.5)] milliseconds, capped at
    30 000. *)

val run :
  ?max_retries:int ->
  ?timeout_s:float ->
  ?verify:bool ->
  ?out_dir:string ->
  ?rng_seed:int ->
  addr:Serve.bind ->
  string list ->
  int
(** [run ~addr files] submits each file and returns the process exit
    code.  [out_dir] writes each ["output"] next to the input's basename
    (created with any missing parents, as [--batch] does); without it outputs are not persisted, only the
    per-file result lines.  [timeout_s] and [verify] are forwarded
    per-request when given.  [rng_seed] makes the backoff jitter
    deterministic (tests). *)
