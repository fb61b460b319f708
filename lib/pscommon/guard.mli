(** Fault containment: guarded execution under resource deadlines.

    Every pipeline entry point (engine, sandbox, baselines, batch runs) is
    made {e total} by running its work inside {!protect}: a stack overflow
    on a deeply nested script, a wall-clock overrun in a decode loop, or a
    stray exception from a malformed sample degrades into a structured
    {!failure} instead of killing the process.

    Deadlines are cooperative: {!protect} installs its deadline as the
    {e ambient} deadline for the duration of the call, and the interpreter's
    step accounting ({!Pseval.Env.tick}) polls it, so any evaluator created
    below a guard inherits the time budget without explicit threading.
    Code that stops reaching checkpoints cannot observe its deadline; in
    the daemon, {!Pool.Service}'s supervisor catches such a worker from
    the deadline alone. *)

type failure =
  | Parse_failure  (** the input never parsed; nothing to work on *)
  | Stack_exhausted  (** recursion blew the stack (deeply nested input) *)
  | Timeout  (** the wall-clock deadline passed *)
  | Oom
      (** the allocator gave up ([Out_of_memory]) — kept distinct from
          {!Unexpected} so failure-site counters and batch reports can
          separate memory exhaustion from genuine bugs *)
  | Output_too_large  (** the result exceeded the output byte cap *)
  | Interpreter_limit of string
      (** a cooperative evaluator limit fired (steps, string bytes,
          collection size, invoke depth) *)
  | Wedged
      (** the supervisor declared the worker handling this request wedged:
          past its deadline plus the grace window with no cooperative
          checkpoint reached — the cooperative machinery never got a chance
          to raise, so the watchdog answered on the worker's behalf *)
  | Unexpected of string  (** any other exception, contained *)

val failure_label : failure -> string
(** Stable kebab-case tag of the taxonomy, for JSON reports. *)

val failure_to_string : failure -> string
(** Human-readable rendering, including the detail payload. *)

exception Deadline_exceeded
(** Raised cooperatively (e.g. by [Env.tick]) when past the ambient
    deadline; {!protect} maps it to {!Timeout}. *)

exception Injected_oom
(** The chaos memory fault ({!Chaos.set_oom_exn} registration).  Classified
    as {!Oom}, so injected exhaustion produces the same structured failure
    as the allocator really giving up — without raising the runtime's
    preallocated [Out_of_memory] from library code. *)

type deadline = float
(** Absolute time in epoch seconds; [infinity] means no deadline. *)

val no_deadline : deadline

val deadline_after : float -> deadline
(** [deadline_after s] is [s] seconds from now ([infinity]-safe). *)

val now : unit -> float
(** Wall clock in epoch seconds. *)

val ambient_deadline : unit -> deadline
(** The innermost deadline installed by an enclosing {!protect}, or
    {!no_deadline} outside any guard.  The deadline stack is
    {e domain-local} (Domain.DLS): parallel batch workers each see only
    their own guards, so deadlines never leak across domains. *)

val expired : deadline -> bool
val remaining_s : deadline -> float

val within : deadline -> (unit -> 'a) -> 'a
(** [within d f] runs [f ()] with the minimum of [d] and the ambient
    deadline installed as ambient, like {!protect}, but contains nothing:
    exceptions pass through, and an expired [d] still runs [f].  For work
    made of guarded steps that must all fit one deadline (a request's
    engine run and its verify gate). *)

val check : deadline -> unit
(** The cooperative checkpoint: enforces the deadline.
    @raise Deadline_exceeded when [deadline] has passed. *)

val register_classifier : (exn -> failure option) -> unit
(** Let higher layers map their exceptions into the taxonomy without a
    dependency cycle (e.g. the evaluator registers [Limit_exceeded] as
    {!Interpreter_limit}). *)

val classify_exn : exn -> failure

val protect :
  ?deadline:deadline ->
  ?max_output_bytes:int ->
  ?measure:('a -> int) ->
  (unit -> 'a) ->
  ('a, failure) result
(** [protect f] runs [f ()] with every escape hatch closed: [Stack_overflow],
    [Out_of_memory], {!Deadline_exceeded} and any other exception become
    [Error failure].  The effective deadline is the minimum of [deadline]
    and the ambient one; it is installed as ambient for the duration of
    [f], and an already-expired deadline returns [Error Timeout] without
    running [f].  When both [max_output_bytes] and [measure] are given, a
    result measuring larger returns [Error Output_too_large].

    Allocation is bounded by the evaluator's step budget, which charges
    what each value built ({!Pseval.Env.built}). *)
