(** Deterministic fault injection for resilience testing.

    Named {e probe points} are threaded through the pipeline's containment
    sites ({!Guard.protect}, piece invocation, interpreter evaluation, pool
    task execution, batch file IO, and the serve daemon's socket edges:
    [serve.accept], [serve.read], [serve.write], [serve.queue]; plus the
    supervision plane: [serve.wedge] — a worker enters a bounded busy-loop
    past its deadline without hitting a cooperative checkpoint — and
    [serve.respawn] — replacing a wedged or retired worker fails once,
    exercising the respawn backoff; and the dynamic-provenance plane:
    [interp.provenance] — a fault in the per-write recorder hook, which
    must poison the provenance map rather than escape into evaluation —
    and [recover.dynamic] — a fault in the dynamic recovery stage itself,
    contained by the engine's phase guard so the run degrades to the
    static output).  When
    chaos is disabled — the default —
    a probe is one atomic load and a comparison: nothing allocates and
    nothing can fire, so probes stay in place on hot paths.  When enabled
    with a {!config}, each probe draws from a {e seeded} deterministic
    stream and raises one of the containment-taxonomy faults
    ([Deadline_exceeded], [Stack_overflow], [Out_of_memory], or an
    arbitrary {!Injected} exception) at the configured per-site rate.

    Reproducibility is the point: the same [seed] replays the same faults
    at the same probe invocations.  Draw streams are domain-local, and
    {!with_scope} re-derives the stream from [(seed, label)], so a batch
    worker that scopes each file by name injects identically no matter
    which domain ran the file or in what order — outputs under injection
    are byte-identical across [--jobs] levels and across traced/untraced
    runs. *)

type config = {
  seed : int;  (** stream seed; same seed, same faults *)
  rate : float;  (** default per-probe injection probability in [0,1] *)
  site_rates : (string * float) list;
      (** per-site overrides, e.g. [("interp.eval", 0.0)] *)
}

val parse_spec : string -> (config, string) result
(** Parse ["SEED:RATE"] or ["SEED:RATE:SITE=RATE,SITE=RATE"] — the
    [--chaos] CLI syntax. *)

val set : config option -> unit
(** Enable ([Some cfg]) or disable ([None], the initial state) injection
    process-wide.  Stored in an [Atomic]; set before spawning workers. *)

val current : unit -> config option
val enabled : unit -> bool

exception Injected of string
(** The "arbitrary exception" fault; carries the probe site.  Classified
    by {!Guard.classify_exn} as [Unexpected]. *)

val set_deadline_exn : exn -> unit
(** Dependency inversion: {!Guard} registers its [Deadline_exceeded] here
    at init so probes can inject it without a module cycle.  Before
    registration the deadline fault falls back to {!Injected}. *)

val set_oom_exn : exn -> unit
(** Same inversion for the memory fault: {!Guard} registers its dedicated
    injected-OOM exception (classified as [Oom]) so probes never raise the
    runtime's preallocated [Out_of_memory] — injected exhaustion stays
    distinguishable from the allocator really giving up, while flowing
    through the same taxonomy end-to-end.  Before registration the fault
    falls back to {!Injected}. *)

val probe : string -> unit
(** [probe site] possibly raises an injected fault.  No-op when disabled.
    When enabled it always consumes one draw (two when it fires), keeping
    the stream position — and therefore every later decision — a pure
    function of the seed, the scope label and the call sequence. *)

val with_scope : string -> (unit -> 'a) -> 'a
(** [with_scope label f] runs [f] with the current domain's draw stream
    re-derived from [(seed, label)], restoring the previous stream after.
    A no-op when disabled.  Batch processing scopes each file by basename,
    making injection per-file deterministic independent of scheduling. *)

val draws : unit -> int
(** Probe invocations that reached the enabled slow path since {!reset_draws}
    (process-global).  Bumped only when enabled, so counting probes (for
    the overhead bench) costs nothing in production. *)

val reset_draws : unit -> unit

(** Corpus mutation fuzzing: the malformed-input generator backing the
    resilience tests and bench.  Deterministic via the caller's {!Rng}. *)
module Mutate : sig
  type kind =
    | Truncate  (** cut the tail — a partial download *)
    | Byte_flip  (** flip random bytes — line noise / bad decode *)
    | Splice  (** duplicate-and-swap two slices — a botched dropper concat *)
    | Encoding
        (** binary-blob / encoding corruption: NUL-interleave a slice or
            prepend a bogus UTF-16 BOM and raw high bytes *)

  val kinds : kind list
  val kind_name : kind -> string

  val truncate_at : float -> string -> string
  (** [truncate_at frac s] keeps the first [frac] of [s] ([0..1], clamped). *)

  val apply : Rng.t -> kind -> string -> string
  (** Apply one mutation.  Total: empty and tiny inputs come back usable. *)
end
