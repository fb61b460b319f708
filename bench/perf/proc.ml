(** Child processes: every measured run starts in a fresh process, so the
    program's process-wide state (piece cache, verify reference cache,
    metrics registry, quarantine breakers) always starts empty. *)

let now = Unix.gettimeofday

type t = { pid : int; out : Unix.file_descr; started : float }

(* Every process started here is killed and reaped at exit, and every work
   directory removed, however [perf] exits. *)
let live : int list ref = ref []
let work_dirs : string list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  live := List.filter (( <> ) pid) !live;
  status

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap pid)

(* [args] excludes argv[0].  The child's stdout comes back on a pipe: one
   "ready" line marks the end of its set-up; stderr is shared. *)
let spawn prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let started = now () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  live := pid :: !live;
  { pid; out = r; started }

exception Failed of string

(* Read the child's stdout until [stop] holds on what was read, or EOF;
   returns what was read and the time its last byte arrived. *)
let read_until t ~deadline ~what stop =
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 4096 in
  let rec go last =
    if stop (Buffer.contents buf) then (Buffer.contents buf, last)
    else
      let left = deadline -. now () in
      if left <= 0.0 then raise (Failed (what ^ " timed out"))
      else
        match Unix.select [ t.out ] [] [] left with
        | [], _, _ -> go last
        | _ -> (
            match Unix.read t.out chunk 0 (Bytes.length chunk) with
            | 0 -> (Buffer.contents buf, last)
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go (now ()))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go last
  in
  go t.started

(* seconds from spawn to the child's "ready" line *)
let wait_ready t ~deadline =
  let text, at =
    read_until t ~deadline ~what:"child set-up" (fun s -> String.contains s '\n')
  in
  if not (String.contains text '\n') then
    raise (Failed "child exited before finishing its set-up");
  at -. t.started

(* Wait for the child to exit, killing it at [deadline]; [Ok ()] only on a
   clean exit 0. *)
let finish t ~deadline =
  let result =
    match read_until t ~deadline ~what:"child run" (fun _ -> false) with
    | _ -> (
        match reap t.pid with
        | Unix.WEXITED 0 -> Ok ()
        | Unix.WEXITED n -> Error (Printf.sprintf "child exited %d" n)
        | Unix.WSIGNALED n | Unix.WSTOPPED n ->
            Error (Printf.sprintf "child killed by signal %d" n))
    | exception Failed msg ->
        kill t.pid;
        Error msg
  in
  Unix.close t.out;
  result

(* Peak resident set of a live process, from /proc (Linux). *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match
                String.split_on_char ' ' (String.trim v)
                |> List.filter (( <> ) "")
              with
              | kb :: _ -> Option.value ~default:acc (float_of_string_opt kb)
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let () =
  at_exit (fun () ->
      List.iter kill !live;
      List.iter rm_rf !work_dirs);
  (* a write to a process that has gone raises instead of killing [perf]
     before its cleanup *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a terminated [perf] still runs the at_exit cleanup *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]
