(** Host-speed calibration.

    On a shared VM one vCPU's speed drifts with the other tenants' load:
    on the 2-vCPU VM the benchmark was defined on, a fixed loop ran at 0.7
    to 1.4 of its median speed, in spells of ten to thirty seconds, longer
    than a run.  Each measured time is therefore scaled to a reference
    speed.  A separate process runs a fixed kernel on request, between
    pieces of the measured work and on the same CPU ([run.sh] pins every
    process of a run to one), and a time is multiplied by [reference_ms]
    over the kernel's median time around it.

    The kernel fills a hash table with short strings, sorts its bindings
    and concatenates them, as the program's passes do with tokens and
    pieces.  Over a minute of [wild], [layered] and [dynamic] work
    interleaved with it, their time over the kernel's spread by 3-4%
    between half-second windows, against 16-24% for their time alone.  It runs in a process of its own, so that its time does not
    depend on the program's heap, whose live data its collections would
    otherwise mark.

    Scaled times are in milliseconds at the reference speed: the speed at
    which the kernel takes [reference_ms].  A change that speeds up the
    program leaves the kernel alone, so its gain shows in full; a change
    to the compiler, its flags or the runtime's defaults would move both. *)

let now = Unix.gettimeofday

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 3_000 do
    let s = string_of_int (i * 7919) ^ "-" ^ string_of_int i in
    Hashtbl.replace h s (String.length s)
  done;
  let l = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
  let b = Buffer.create 16 in
  List.iter (fun (k, _) -> Buffer.add_string b k) l;
  Buffer.length b

(* about the kernel's median time between pieces of measured work on the
   2-vCPU VM the benchmark was defined on, so that a scaled time reads
   close to a wall time there *)
let reference_ms = 3.5

(* The calibrator's body: one kernel per request line, answered with its
   time in milliseconds. *)
let serve () =
  try
    while true do
      ignore (input_line stdin);
      let t0 = now () in
      ignore (Sys.opaque_identity (kernel ()));
      Printf.printf "%.6f\n%!" ((now () -. t0) *. 1000.0)
    done
  with End_of_file -> ()

type t = {
  pid : int;
  req : out_channel;
  resp : in_channel;
  mutable log : (float * float) list;  (** (when, kernel ms), newest first *)
  mutable last : float;
}

let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "child"; "calib" |] req_r resp_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close resp_w;
  Proc.live := pid :: !Proc.live;
  { pid; req = Unix.out_channel_of_descr req_w; resp = Unix.in_channel_of_descr resp_r;
    log = []; last = neg_infinity }

(* one kernel run, logged *)
let ping t =
  output_string t.req "k\n";
  flush t.req;
  let ms = float_of_string (input_line t.resp) in
  t.last <- now ();
  t.log <- (t.last, ms) :: t.log

(* A kernel run every [period] seconds of measured work keeps the scale
   within one spell of the host's speed; at 3.5 ms a run, it costs 4%. *)
let period = 0.1

let tick t = if now () -. t.last >= period then ping t

let stop t =
  close_out_noerr t.req;
  close_in_noerr t.resp;
  ignore (Proc.reap t.pid)

(* Kernel runs a scale is taken over: the median of this many, nearest in
   time, tolerates a run that an interrupt or a cold cache slowed. *)
let window = 9

(* [scale t] is the factor that takes a time measured at [at] to the
   reference speed. *)
let scale t =
  let log = Array.of_list (List.rev t.log) in
  let n = Array.length log in
  if n = 0 then fun _ -> 1.0
  else fun at ->
    (* the first run at or after [at] *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst log.(mid) < at then search (mid + 1) hi else search lo mid
    in
    let i = search 0 n in
    let lo = max 0 (min (i - (window / 2)) (n - window)) in
    let hi = min n (lo + window) in
    reference_ms /. Stat.median (List.init (hi - lo) (fun k -> snd log.(lo + k)))
