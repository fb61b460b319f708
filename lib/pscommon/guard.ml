(** Fault containment: guarded execution under resource deadlines. *)

type failure =
  | Parse_failure
  | Stack_exhausted
  | Timeout
  | Oom
  | Output_too_large
  | Interpreter_limit of string
  | Wedged
  | Unexpected of string

let failure_label = function
  | Parse_failure -> "parse-failure"
  | Stack_exhausted -> "stack-exhausted"
  | Timeout -> "timeout"
  | Oom -> "out-of-memory"
  | Output_too_large -> "output-too-large"
  | Interpreter_limit _ -> "interpreter-limit"
  | Wedged -> "wedged"
  | Unexpected _ -> "unexpected"

let failure_to_string = function
  | Parse_failure -> "parse failure"
  | Stack_exhausted -> "stack exhausted"
  | Timeout -> "wall-clock deadline exceeded"
  | Oom -> "out of memory"
  | Output_too_large -> "output too large"
  | Interpreter_limit m -> "interpreter limit: " ^ m
  | Wedged ->
      "worker wedged: no cooperative checkpoint past deadline plus grace"
  | Unexpected m -> "unexpected exception: " ^ m

exception Deadline_exceeded

exception Injected_oom
(* the chaos memory fault: classified exactly like [Out_of_memory] but never
   confusable with the runtime's preallocated exception *)

(* let Chaos inject the real taxonomy exceptions without a module cycle *)
let () = Chaos.set_deadline_exn Deadline_exceeded
let () = Chaos.set_oom_exn Injected_oom

type deadline = float

let no_deadline = infinity
let now () = Unix.gettimeofday ()
let deadline_after s = if s = infinity then infinity else now () +. s

(* Innermost first; guards nest (batch file -> engine phase -> piece).  The
   stack is domain-local state: parallel batch workers each guard their own
   file, and a deadline installed in one domain must never be observed as
   ambient by another.  Each domain's stack starts empty. *)
let ambient : deadline list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let ambient_deadline () =
  match Domain.DLS.get ambient with [] -> no_deadline | d :: _ -> d

let expired d = d < infinity && now () >= d
let remaining_s d = if d = infinity then infinity else d -. now ()

let within d f =
  let stack = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Float.min d (ambient_deadline ()) :: stack);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient stack) f

let check d =
  if expired d then raise Deadline_exceeded

(* Registration happens in module initialisers (single-domain, before any
   worker spawns), but an atomic keeps late registration from racing a
   concurrent classify in some future use. *)
let classifiers : (exn -> failure option) list Atomic.t = Atomic.make []

let rec register_classifier f =
  let cur = Atomic.get classifiers in
  if not (Atomic.compare_and_set classifiers cur (f :: cur)) then
    register_classifier f

let classify_exn e =
  match e with
  | Deadline_exceeded -> Timeout
  | Stack_overflow -> Stack_exhausted
  | Out_of_memory -> Oom
  | Injected_oom -> Oom
  | Chaos.Injected site -> Unexpected ("chaos injection at " ^ site)
  | e -> (
      match List.find_map (fun f -> f e) (Atomic.get classifiers) with
      | Some failure -> failure
      | None -> Unexpected (Printexc.to_string e))

let protect ?(deadline = no_deadline) ?max_output_bytes ?measure f =
  let effective = Float.min deadline (ambient_deadline ()) in
  if expired effective then Error Timeout
  else begin
    Domain.DLS.set ambient (effective :: Domain.DLS.get ambient);
    let result =
      (* the chaos probe fires inside the guarded extent, so an injected
         fault is classified exactly like a real one *)
      match
        Chaos.probe "guard";
        f ()
      with
      | v -> Ok v
      | exception e -> Error (classify_exn e)
    in
    Domain.DLS.set ambient
      (match Domain.DLS.get ambient with _ :: rest -> rest | [] -> []);
    match (result, max_output_bytes, measure) with
    | Ok v, Some cap, Some size when size v > cap -> Error Output_too_large
    | r, _, _ -> r
  end
