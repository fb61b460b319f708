(** Evaluation environment: variable scopes, effect events, limits.

    Two modes share one interpreter:
    {ul
    {- [Recovery] — used by the deobfuscator's Invoke-based recovery.  Any
       side effect raises {!Blocked}; the deobfuscator then keeps the
       obfuscated piece, exactly as the paper's blocklist does.}
    {- [Sandbox] — used for behavioural-consistency experiments.  Side
       effects are recorded as events and return synthetic results, like
       the TianQiong sandbox the paper uses.}} *)

type mode = Recovery | Sandbox

type event =
  | Dns_query of string
  | Tcp_connect of string * int
  | Http_get of string
  | Http_download of string * string  (** url, destination path *)
  | File_write of string
  | File_read of string
  | Process_start of string
  | Registry_write of string
  | Sleep of float

val event_to_string : event -> string

exception Blocked of string
(** Raised in [Recovery] mode when execution would produce a side effect. *)

exception Eval_error of string
exception Limit_exceeded of string

type limits = {
  max_steps : int;
  max_invoke_depth : int;  (** nested Invoke-Expression layers *)
  max_collection : int;  (** range / array size cap *)
  max_string_bytes : int;  (** cap on any single string value built *)
}

val default_limits : limits

val step_budget : bytes:int -> int
(** The step budget of one run of a script of [bytes] bytes: 400 000 plus
    40 per byte, since decoding loops visit every payload character several
    times.  The deobfuscator's one budget rule: a recovery piece gets the
    budget of its own text, the dynamic stage that of the script it runs,
    and every sandbox run of the verify gate that of the original. *)

type fn = { fn_params : Psast.Ast.variable list; fn_body : Psast.Ast.t }

type payload = {
  decoded : string;  (** the string the payload expression evaluated to *)
  steps : int;
      (** evaluation steps the expression took, counted as in place: the
          piece's own statement tick is not included *)
  reads : (string * Psvalue.Value.t) list;
      (** outside bindings it read, by scope key, each an immutable scalar
          ([Null], [Bool], [Int], [Float], [Char], [Str]) with the value
          it read: a reuse where one of them holds another value, or none,
          misses *)
  writes : (string * Psvalue.Value.t) list;
      (** bindings the evaluation left in the scope it ran in, by scope
          key, with their final values — in practice the [$_] and [$input] cursors
          ForEach-Object leaves in its caller's scope *)
  commands : string list;
      (** folded command names it ran as builtins; a reuse where one of
          them is a user function would call that function in place, so
          it misses *)
  decoded_under : limits;
      (** the limits it was decoded under: a run whose string or
          collection caps are lower could fail in place where recovery
          did not *)
}
(** What recovery learned decoding an Invoke-Expression payload whose
    evaluation was self-contained: it returned a string, read only
    bindings it wrote itself or outside immutable scalars (recorded in
    [reads]), wrote only into the scope it ran in, called no user
    function, recorded no event, command-log line or host output,
    stringified no script block, and took no path on which [Recovery] and
    [Sandbox] mode differ.  {!reuse} stands in for the same evaluation in
    place. *)

type payloads = (string, payload) Hashtbl.t
(** One request's decoded payloads, keyed on the {!Psast.Eval_digest} of
    the stages recovery evaluated: the expression's parse, or the
    pipeline prefix's. *)

type probe
(** The watch {!start_probe} keeps over one recovery evaluation. *)

type scope
(** One variable scope: a table of mutable binding cells. *)

type t = {
  mutable scopes : scope list;  (** innermost first; the last is [global] *)
  global : scope;
  mutable created : int;
      (** bindings created or removed so far in any scope (see {!cursor}) *)
  functions : (string, fn) Hashtbl.t;
  env_vars : (string, string) Hashtbl.t;
      (** the simulated [$env:] names this environment wrote; every other
          name reads a shared read-only template *)
  mode : mode;
  limits : limits;
  deadline : Pscommon.Guard.deadline;
      (** the evaluator's one clock: the ambient request deadline at
          {!create}, at most 5 s away *)
  mutable steps : int;
  mutable invoke_depth : int;
  mutable events : event list;
  mutable command_log : string list;
      (** unresolved commands with stringified args, reverse order;
          [Sandbox] mode only (see {!log_command}) *)
  mutable output_sink : Psvalue.Value.t list;  (** Write-Host capture *)
  mutable downloads_fail : bool;
      (** dead-C2 simulation: network fetches record their event, then
          raise — how executing tools experience wild samples *)
  mutable iex_hook : (literal:bool -> string -> bool) option;
      (** overriding-function simulation; [literal] is true when the
          command was spelled out.  Returning [true] consumes the payload
          (skips execution), like an override that prints instead of
          executing. *)
  mutable provenance : Provenance.t option;
      (** when installed, the interpreter stamps each variable write with
          its defining extent / step / dependency set — the dynamic
          recovery plane.  [None] (the default) costs one load per write. *)
  mutable probe : probe option;
      (** [Recovery]: set by {!start_probe} while a payload is decoded for
          reuse; every read, write, command lookup and effect then checks
          that the evaluation stays self-contained.  [None] (the default)
          costs one load per variable access. *)
  mutable payloads : payloads option;
      (** [Sandbox]: payloads recovery already decoded for this request.
          The interpreter consults it at Invoke-Expression sites (see
          {!Interp}) and {!reuse}s a hit instead of evaluating the payload
          expression again.  [None] (the default) evaluates every payload. *)
}

val automatic_variables : (string * Psvalue.Value.t) list
(** The built-in variables an empty session provides ([$pshome], [$true],
    [$pid], …) — including the values obfuscators index into.  They sit in
    a shared read-only template behind every environment's global scope
    (copy-on-write): a write to one binds it in the global scope, and
    {!create} copies nothing. *)

val create : ?mode:mode -> ?limits:limits -> unit -> t

val tick : t -> unit
(** Account one evaluation step.  Steps are also charged for the work
    {!built} and {!charge_matcher} report, and the deadline is polled
    whenever the count crosses a multiple of 2 048.
    @raise Limit_exceeded over budget.
    @raise Pscommon.Guard.Deadline_exceeded past the deadline. *)

val check_size : t -> Psvalue.Value.t -> unit
(** Enforce [max_string_bytes] / [max_collection] on a value.
    @raise Limit_exceeded when the value is over a limit. *)

val built : t -> Psvalue.Value.t -> unit
(** {!check_size} a value an expression built and charge building it:
    a step per 16 string bytes or 4 array elements, so a step budget
    bounds time and allocation even when every step builds a megabyte. *)

val charge_matcher : t -> int -> unit
(** Charge the matcher steps a {!Regexen.Regex} search reports: a step
    per four. *)

val record : t -> event -> unit
(** Record a side effect ([Sandbox]) or @raise Blocked ([Recovery]). *)

val events : t -> event list
(** Events in occurrence order. *)

val log_command : t -> string -> string list -> unit
(** Note an unresolved command invocation ([name], stringified args) for the
    effect log.  No-op in [Recovery] mode by design: piece execution must
    stay observation-free so memoized piece results never carry effects a
    cache hit would drop or replay. *)

val commands : t -> string list
(** Logged command lines in invocation order. *)

val global_bindings : t -> (string * Psvalue.Value.t) list
(** Global-scope bindings the script established, sorted by name; automatic
    variables appear only if the script overwrote them. *)

val scope_bindings : t -> (string * Psvalue.Value.t) list list
(** Every scope's bindings, innermost scope first, each sorted by name; the
    global scope's include every automatic variable, overwritten or not.
    For tests that compare whole environments. *)

val get_var : t -> Psast.Ast.var_key -> Psvalue.Value.t option
(** Scope-chain lookup; [$env:*] reads the simulated environment;
    drive-qualified names resolve their scope.  The key comes from the
    AST, or from {!Psparse.Names.var_key} for a name made at run time. *)

val read_var : t -> Psast.Ast.var_key -> Psvalue.Value.t
(** {!get_var} without the option.
    @raise Not_found where {!get_var} answers [None]. *)

val set_var : t -> Psast.Ast.var_key -> Psvalue.Value.t -> unit
(** Update where visible, else create in the current scope (an automatic
    variable is visible in the global scope). *)

type cursor
(** A pipeline cursor's binding ([$_], [$input]) kept across the items of
    one pipeline stage. *)

val cursor : Psast.Ast.var_key -> cursor
(** A cursor for the key, resolved on its first {!set_cursor}. *)

val set_cursor : t -> cursor -> Psvalue.Value.t -> unit
(** Exactly {!set_var} on the cursor's key, probe included; after the
    first call, while no binding has been created in any scope since, it
    is one store into the binding the first call resolved. *)

val keeping_cursors : t -> (unit -> 'a) -> 'a
(** [keeping_cursors env f] runs a pipeline stage that binds [$_] and
    [$input]: when [f] ends, however it ends, each gets back the value it
    had before, or is unset again when it was unset. *)

val item_var : Psast.Ast.var_key
(** [$_], the pipeline cursor *)

val input_var : Psast.Ast.var_key
val args_var : Psast.Ast.var_key

val push_scope : t -> unit
val pop_scope : t -> unit
val with_scope : t -> (unit -> 'a) -> 'a

val define_function : t -> string -> fn -> unit
(** Keyed on the folded name ({!Psast.Ast.name}'s [key]). *)

val find_function : t -> string -> fn option
(** Looked up by the folded name: a command's [cmd_folded]. *)

val sink : t -> Psvalue.Value.t -> unit
(** Host output (Write-Host). *)

val sunk_output : t -> Psvalue.Value.t list

val bindings_digest : (string * Psvalue.Value.t) list -> string option
(** Content fingerprint of a seeded binding set, for memoizing piece
    recovery: two environments seeded from binding lists with equal digests
    evaluate any piece to the same value.  [None] when a binding holds a
    compound value (array, hashtable, stream, script block) — those are
    mutable or carry hidden state, so the set cannot be fingerprinted
    soundly and callers must not cache. *)

val start_probe : t -> target:Psast.Ast.t -> probe
(** Watch the evaluation about to run in [t], whose step count is taken
    over [target], the piece's lone pipeline statement (the interpreter
    stamps it; see {!set_in_place}). *)

val is_target : probe -> Psast.Ast.t -> bool
(** [is_target p stmt]: [stmt] is (physically) the probe's target. *)

val set_in_place : probe -> int -> unit
(** [set_in_place p steps]: the interpreter reports the steps the target
    statement's pipeline took. *)

val taint : t -> unit
(** The running evaluation took a path whose result may differ where the
    payload runs in place (a [Recovery]-only failure, a nested
    Invoke-Expression): no-op unless a probe is watching. *)

val finish_probe : t -> probe -> string -> payload option
(** [Some] when the evaluation watched by the probe, which returned
    [decoded], was self-contained, stringified no script block, and its
    target statement finished.  The caller clears [t.probe]. *)

val reuse : t -> site_commands:string list -> payload -> bool
(** Stand in for evaluating the payload's expression in place, at a site
    whose bareword commands have the folded names [site_commands] as
    written ({!Psast.Eval_digest.site}): charge its steps (building
    the decoded string included), replay its residual writes as
    {!set_var} would, and apply {!check_size} to the decoded string.
    [false], with nothing changed, when the reuse could
    not match an in-place evaluation: the steps would cross the budget, a
    provenance recorder is installed, this run's string or collection
    caps are lower than the ones it was decoded under, one of its
    commands or of [site_commands] is a user function here, or one of its
    [reads] resolves here to another value or to none. *)
