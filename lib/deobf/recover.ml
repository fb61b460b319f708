(** Recovery based on AST (paper §III-B).

    One pass over the parsed script, in source order:
    {ol
    {- multi-layer unwrapping: a statement that is an [Invoke-Expression] /
       [powershell -EncodedCommand] invocation (in any obfuscated spelling)
       is replaced by the recursively-deobfuscated payload;}
    {- recoverable-piece execution: the {e outermost} recoverable node whose
       execution yields a renderable value is replaced in place by the
       rendered value; when the outer piece cannot be recovered the pass
       descends into its children;}
    {- variable tracing: assignments in straight-line code update the symbol
       table, and variable usages with known simple values are replaced by
       literals.}}

    All replacements are collected as extent edits and applied at once; the
    result is syntax-checked, and on any breakage the input is returned
    unchanged. *)

open Pscommon
module A = Psast.Ast
module Value = Psvalue.Value
module T = Telemetry

(* Process-wide recovery metrics, aggregated across batch domains (the
   per-run view lives in [stats]; these feed the batch metrics.json). *)
let m_attempted = T.Metrics.counter "recover.pieces_attempted"
let m_recovered = T.Metrics.counter "recover.pieces_recovered"
let m_blocked = T.Metrics.counter "recover.pieces_blocked"
let m_cache_hits = T.Metrics.counter "recover.cache_hits"
let m_substituted = T.Metrics.counter "recover.variables_substituted"
let m_unwrapped = T.Metrics.counter "recover.layers_unwrapped"
let m_piece_ms = T.Metrics.histogram "recover.piece_ms"
let m_dyn_attempted = T.Metrics.counter "recover.dynamic.attempted"
let m_dyn_recovered = T.Metrics.counter "recover.dynamic.recovered"
let m_dyn_unverifiable = T.Metrics.counter "recover.dynamic.unverifiable"

type options = {
  use_tracing : bool;  (** ablation: Algorithm 1 on/off *)
  use_blocklist : bool;  (** ablation: skip pieces naming blocked commands *)
  use_multilayer : bool;  (** ablation: IEX / -EncodedCommand unwrapping *)
  use_piece_cache : bool;  (** ablation: memoize piece invocations *)
  max_depth : int;  (** multi-layer recursion bound *)
  piece_step_budget : int;  (** interpreter budget per invoked piece *)
  piece_timeout_s : float;  (** wall-clock budget per invoked piece *)
  use_dynamic : bool;
      (** provenance-guided dynamic recovery of loop/conditional regions
          the static tracer skips; every edit still faces the verify gate *)
  dynamic_step_budget : int;  (** interpreter budget for one dynamic run *)
}

let default_options =
  { use_tracing = true; use_blocklist = true; use_multilayer = true;
    use_piece_cache = true; max_depth = 16; piece_step_budget = 400_000;
    piece_timeout_s = 5.0; use_dynamic = true; dynamic_step_budget = 1_000_000 }

type stats = {
  mutable pieces_recovered : int;
  mutable variables_substituted : int;
  mutable layers_unwrapped : int;
  mutable pieces_attempted : int;
  mutable pieces_blocked : int;
  mutable cache_hits : int;
  mutable edits_recorded : int;
      (** extent edits actually applied (post-normalization), summed over
          passes — the size of the journal the semantic gate bisects *)
  mutable dynamic_attempted : int;  (** loop/conditional regions targeted *)
  mutable dynamic_recovered : int;  (** regions replaced by traced values *)
  mutable dynamic_unverifiable : int;
      (** regions degraded to static-only output: effects observed, values
          unrenderable, provenance missing or poisoned, or execution halted *)
}

let new_stats () =
  { pieces_recovered = 0; variables_substituted = 0; layers_unwrapped = 0;
    pieces_attempted = 0; pieces_blocked = 0; cache_hits = 0;
    edits_recorded = 0; dynamic_attempted = 0; dynamic_recovered = 0;
    dynamic_unverifiable = 0 }

(* Memoizes piece invocation: obfuscators emit the same decode piece
   hundreds of times per script, wild corpora repeat the same decode
   constructs across scripts, and the fixpoint loop re-attempts unrecovered
   pieces every pass.  The key joins the traced-binding digest (the only
   ambient input to an execution) with the piece text; a table holding an
   unfingerprintable value yields no key and bypasses the cache entirely.

   Three tiers.  In-memory results are content-addressed and mutex-guarded,
   so one cache is shared by every pool domain of a batch or daemon
   process; bounding is two-generation segmented eviction (hot fills up →
   hot becomes cold, old cold is dropped, recently-touched entries are
   promoted back to hot), so overflow sheds the stale half instead of
   cold-starting the whole working set.  An optional persistent tier
   ([dir]) write-throughs every cacheable result to a digest-named file
   (atomic rename; payload digest + version/options [fingerprint] checked
   on load, so corruption, torn writes, and stale options all read as a
   miss) — batch reruns and daemon restarts start warm.  Alongside the
   result tiers, compiled piece programs ({!Pseval.Compile}) are memoized
   on text alone: compilation has no environment inputs, so programs are
   shared even when the binding digest differs or result caching is
   ablated away. *)
module Cache = struct
  (* tier attribution: which tier answered a hit — the scrape endpoint's
     view of where the working set actually lives *)
  let m_tier_hot = T.Metrics.counter "recover.cache.tier.hot"
  let m_tier_cold = T.Metrics.counter "recover.cache.tier.cold"
  let m_tier_persistent = T.Metrics.counter "recover.cache.tier.persistent"
  let m_tier_program = T.Metrics.counter "recover.cache.tier.program"

  type entry = (Value.t, string) result

  type stats = {
    entries : int;
    hits : int;
    lookups : int;
    evictions : int;
    persistent_loads : int;
  }

  type fact = Trivial | Blocked

  type t = {
    mu : Mutex.t;
    mutable hot : (string, entry) Hashtbl.t;
    mutable cold : (string, entry) Hashtbl.t;
    gen_cap : int;  (** per generation; total residency stays under [cap] *)
    dir : string option;
    fingerprint : string;
    mutable hits : int;
    mutable lookups : int;
    mutable evictions : int;
    mutable persistent_loads : int;
    mutable prog_hot : (string, Pseval.Compile.program) Hashtbl.t;
    mutable prog_cold : (string, Pseval.Compile.program) Hashtbl.t;
    mutable facts_hot : (fact * string, bool) Hashtbl.t;
    mutable facts_cold : (fact * string, bool) Hashtbl.t;
  }

  let m_resets = T.Metrics.counter "recover.cache.resets"
  let m_entries = T.Metrics.gauge "recover.cache.entries"

  let create ?(cap = 2048) ?dir ?(fingerprint = "") () =
    { mu = Mutex.create ();
      hot = Hashtbl.create 64;
      cold = Hashtbl.create 64;
      gen_cap = max 1 (cap / 2);
      dir;
      fingerprint;
      hits = 0;
      lookups = 0;
      evictions = 0;
      persistent_loads = 0;
      prog_hot = Hashtbl.create 64;
      prog_cold = Hashtbl.create 64;
      facts_hot = Hashtbl.create 64;
      facts_cold = Hashtbl.create 64 }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  (* generation flip: hot becomes cold, the previous cold generation is
     dropped.  Counted in [recover.cache.resets], as the whole-table reset
     it replaces was. *)
  let flip_locked t =
    t.evictions <- t.evictions + Hashtbl.length t.cold;
    t.cold <- t.hot;
    t.hot <- Hashtbl.create 64;
    T.Metrics.incr m_resets

  let insert_locked t key entry =
    if Hashtbl.length t.hot >= t.gen_cap && not (Hashtbl.mem t.hot key) then
      flip_locked t;
    Hashtbl.replace t.hot key entry;
    Hashtbl.remove t.cold key;
    (* last writer wins across domains — a gauge, not an exact census *)
    T.Metrics.set m_entries (Hashtbl.length t.hot + Hashtbl.length t.cold)

  (* ----- persistent tier ----- *)

  let magic = "IDPC1"

  let entry_path t key =
    match t.dir with
    | None -> None
    | Some dir ->
        Some
          (Filename.concat dir
             (Digest.to_hex (Digest.string (t.fingerprint ^ "\x00" ^ key))
             ^ ".piece"))

  let tmp_counter = Atomic.make 0

  (* best-effort write-through: tmp file + atomic rename so readers never
     see a partial entry under POSIX semantics, plus a payload digest so a
     torn write on a crashed run still reads back as a miss *)
  let persist t key entry =
    match entry_path t key with
    | None -> ()
    | Some path -> (
        try
          let payload =
            Marshal.to_string (t.fingerprint, key, (entry : entry)) []
          in
          let body = magic ^ Digest.string payload ^ payload in
          let tmp =
            Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
              (Atomic.fetch_and_add tmp_counter 1)
          in
          let oc = open_out_bin tmp in
          (try
             output_string oc body;
             close_out oc
           with e ->
             close_out_noerr oc;
             raise e);
          Sys.rename tmp path
        with _ -> ())

  (* any defect — missing file, bad magic, truncation, digest mismatch,
     foreign fingerprint, unmarshalable bytes — is a miss, never a crash *)
  let load_persistent t key =
    match entry_path t key with
    | None -> None
    | Some path -> (
        try
          let ic = open_in_bin path in
          let body =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          let mlen = String.length magic in
          if String.length body < mlen + 16 then None
          else if not (String.equal (String.sub body 0 mlen) magic) then None
          else
            let digest = String.sub body mlen 16 in
            let payload =
              String.sub body (mlen + 16) (String.length body - mlen - 16)
            in
            if not (String.equal (Digest.string payload) digest) then None
            else
              let (fp, k, entry) : string * string * entry =
                Marshal.from_string payload 0
              in
              if String.equal fp t.fingerprint && String.equal k key then
                Some entry
              else None
        with _ -> None)

  (* ----- lookups ----- *)

  let find t key =
    let in_memory =
      locked t (fun () ->
          t.lookups <- t.lookups + 1;
          match Hashtbl.find_opt t.hot key with
          | Some e ->
              t.hits <- t.hits + 1;
              T.Metrics.incr m_tier_hot;
              Some e
          | None -> (
              match Hashtbl.find_opt t.cold key with
              | Some e ->
                  (* promote: recently-used entries survive the next flip *)
                  t.hits <- t.hits + 1;
                  T.Metrics.incr m_tier_cold;
                  insert_locked t key e;
                  Some e
              | None -> None))
    in
    match in_memory with
    | Some _ as r -> r
    | None -> (
        match load_persistent t key with
        | Some entry ->
            locked t (fun () ->
                t.hits <- t.hits + 1;
                t.persistent_loads <- t.persistent_loads + 1;
                T.Metrics.incr m_tier_persistent;
                insert_locked t key entry);
            Some entry
        | None -> None)

  let add t key entry =
    locked t (fun () -> insert_locked t key entry);
    persist t key entry

  let m_shrinks = T.Metrics.counter "recover.cache.shrinks"

  (* memory-pressure shed: drop both cold generations (results and
     programs) without touching the hot working set — the cheapest bytes to
     give back, since anything recently used was promoted to hot *)
  let shrink t =
    locked t (fun () ->
        t.evictions <- t.evictions + Hashtbl.length t.cold;
        t.cold <- Hashtbl.create 64;
        t.prog_cold <- Hashtbl.create 64;
        t.facts_cold <- Hashtbl.create 64;
        T.Metrics.incr m_shrinks;
        T.Metrics.set m_entries (Hashtbl.length t.hot))

  let length t =
    locked t (fun () -> Hashtbl.length t.hot + Hashtbl.length t.cold)

  let stats t =
    locked t (fun () ->
        { entries = Hashtbl.length t.hot + Hashtbl.length t.cold;
          hits = t.hits;
          lookups = t.lookups;
          evictions = t.evictions;
          persistent_loads = t.persistent_loads })

  (* ----- compiled-program tier ----- *)

  (* programs hold closures, so they never touch the persistent tier; they
     ride the same two-generation discipline on their own tables (flips are
     not counted in [recover.cache.resets] — that counter is the result
     cache's) *)
  let flip_progs_locked t =
    t.prog_cold <- t.prog_hot;
    t.prog_hot <- Hashtbl.create 64

  let find_program t text =
    locked t (fun () ->
        match Hashtbl.find_opt t.prog_hot text with
        | Some _ as r ->
            T.Metrics.incr m_tier_program;
            r
        | None -> (
            match Hashtbl.find_opt t.prog_cold text with
            | Some p ->
                T.Metrics.incr m_tier_program;
                if Hashtbl.length t.prog_hot >= t.gen_cap then
                  flip_progs_locked t;
                Hashtbl.replace t.prog_hot text p;
                Hashtbl.remove t.prog_cold text;
                Some p
            | None -> None))

  let add_program t text prog =
    locked t (fun () ->
        if
          Hashtbl.length t.prog_hot >= t.gen_cap
          && not (Hashtbl.mem t.prog_hot text)
        then flip_progs_locked t;
        Hashtbl.replace t.prog_hot text prog;
        Hashtbl.remove t.prog_cold text)

  (* ----- per-text fact tier ----- *)

  (* Pure per-text answers (is the piece already a literal, does it name a
     blocked command) that every fixpoint pass would otherwise recompute
     with a parse or a lex of the same piece.  Keyed on (fact, text),
     never persisted, and bounded like the program tier: two generations
     flipping at [gen_cap], cold dropped by [shrink]. *)
  let store_fact_locked t key v =
    if
      Hashtbl.length t.facts_hot >= t.gen_cap
      && not (Hashtbl.mem t.facts_hot key)
    then begin
      t.facts_cold <- t.facts_hot;
      t.facts_hot <- Hashtbl.create 64
    end;
    Hashtbl.replace t.facts_hot key v;
    Hashtbl.remove t.facts_cold key

  let fact t fact text compute =
    let key = (fact, text) in
    let known =
      locked t (fun () ->
          match Hashtbl.find_opt t.facts_hot key with
          | Some _ as r -> r
          | None -> (
              match Hashtbl.find_opt t.facts_cold key with
              | Some v ->
                  (* promote: a fact the passes still ask for survives the
                     next flip *)
                  store_fact_locked t key v;
                  Some v
              | None -> None))
    in
    match known with
    | Some v -> v
    | None ->
        let v = compute text in
        locked t (fun () -> store_fact_locked t key v);
        v

  let fact_count t fact =
    locked t (fun () ->
        let count tbl =
          Hashtbl.fold (fun (f, _) _ n -> if f = fact then n + 1 else n) tbl 0
        in
        count t.facts_hot + count t.facts_cold)
end

type pass_state = {
  opts : options;
  stats : stats;
  cache : Cache.t;  (** shared across passes and layers of one engine run *)
  src : string;
  table : Tracer.t;
  mutable edits : (Patch.edit * string) list;  (** with their kind labels *)
  suppress : Editlog.suppression list;
      (** edits rolled back by the semantic gate; matched by content *)
  deobfuscate : depth:int -> string -> string;  (** full engine, for layers *)
  depth : int;
}

(* [false] when the gate suppressed this edit on a rollback re-run — the
   caller then skips its stats/telemetry notes and falls back to whatever
   it would have done had the edit not been possible *)
let add_edit st ~kind extent replacement =
  let keep =
    Quarantine.admits ~phase:"recover" ~kind
    && (st.suppress = []
       || not
            (Editlog.suppressed st.suppress ~phase:"recover"
               ~before:(Extent.text st.src extent) ~after:replacement))
  in
  if keep then st.edits <- (Patch.edit extent replacement, kind) :: st.edits;
  keep

(* one variable usage replaced by its traced literal value *)
let note_substitute st name =
  st.stats.variables_substituted <- st.stats.variables_substituted + 1;
  T.Metrics.incr m_substituted;
  if T.active () then
    T.event "recover.substitute" ~attrs:[ ("var", T.S name) ]

(* one Invoke-Expression / -EncodedCommand layer replaced by its payload *)
let note_unwrap st payload =
  st.stats.layers_unwrapped <- st.stats.layers_unwrapped + 1;
  T.Metrics.incr m_unwrapped;
  if T.active () then
    T.event "recover.layer_unwrap"
      ~attrs:
        [ ("depth", T.I st.depth);
          ("payload_bytes", T.I (String.length payload)) ]

(* ---------- invoking pieces ---------- *)

let fresh_env ?(for_bytes = 0) st =
  (* decoding loops visit every payload character several times, so the
     budget scales with the piece being executed *)
  let max_steps = st.opts.piece_step_budget + (40 * for_bytes) in
  let limits = { Pseval.Env.default_limits with Pseval.Env.max_steps } in
  let env = Pseval.Env.create ~mode:Pseval.Env.Recovery ~limits () in
  if st.opts.use_tracing then Tracer.seed_env st.table env;
  env

(* run one piece under a guard: a stack overflow on a pathological piece, a
   wall-clock overrun, or any stray exception degrades that piece instead of
   aborting the pass.  The per-piece deadline is lowered to any enclosing
   run deadline by Guard.protect itself. *)
let guarded st f =
  match
    Guard.protect ~deadline:(Guard.deadline_after st.opts.piece_timeout_s) f
  with
  | Ok r -> r
  | Error failure -> Error (Guard.failure_label failure)

(* guard failures that depend on the moment of execution (wall clock,
   current recursion depth) must not be replayed from the cache *)
let cacheable_error = function
  | "timeout" | "stack-exhausted" -> false
  | _ -> true

(* compile-once-run-many: the closure-compiled form of a piece text, from
   the cache's program tier when warm.  Compilation is deterministic, draws
   no chaos probes, and is environment-independent, so memoizing on text
   alone is sound even across scripts with different traced bindings. *)
let program_for st text =
  match Cache.find_program st.cache text with
  | Some p -> p
  | None ->
      let p = Pseval.Compile.compile text in
      Cache.add_program st.cache text p;
      p

(* the blocklist test (paper §III-B2) is a pure function of the piece text,
   asked again on every pass: answered from the cache's per-text tier *)
let blocked cache text =
  Cache.fact cache Cache.Blocked text Blocklist.mentions_blocked_command

let cache_key st text =
  if not st.opts.use_piece_cache then None
  else
    let digest =
      (* with tracing off the env is never seeded: every invocation runs
         under the same (empty) binding set *)
      if st.opts.use_tracing then Tracer.digest st.table
      else Pseval.Env.bindings_digest []
    in
    match digest with
    | Some d -> Some (d ^ "\x00" ^ text)
    | None -> None

(* trace attributes of a piece execution's outcome: the guard verdict
   ("ok" for a recovered value, the failure label otherwise) plus the
   rendered size when the result has a cheap string form *)
let piece_end_attrs ~cache_hit result =
  let verdict = match result with Ok _ -> "ok" | Error e -> e in
  let base =
    [ ("verdict", T.S verdict); ("cache_hit", T.B cache_hit) ]
  in
  match result with
  | Ok (Value.Str s) -> ("bytes_out", T.I (String.length s)) :: base
  | _ -> base

(** Execute a piece of script text and return the resulting value.
    Memoized on (traced-binding digest, text): a fresh environment seeded
    from an identical binding set evaluates identical text to the same
    value, so a hit replays the recorded result without re-interpreting.
    [kind] labels the telemetry span with what the piece syntactically is
    (AST node kind, or the call-site role for command names / payloads). *)
let invoke_piece ?(kind = "piece") st text =
  st.stats.pieces_attempted <- st.stats.pieces_attempted + 1;
  T.Metrics.incr m_attempted;
  (* per-kind attribution: which syntactic shapes the recovery budget is
     actually spent on (counter here, latency histogram on the miss path) *)
  T.Metrics.incr (T.Metrics.counter ("recover.rule." ^ kind));
  let sid =
    if T.active () then
      T.span_begin "recover.piece"
        ~attrs:
          [ ("kind", T.S kind); ("bytes_in", T.I (String.length text)) ]
    else 0
  in
  if st.opts.use_blocklist && blocked st.cache text then begin
    st.stats.pieces_blocked <- st.stats.pieces_blocked + 1;
    T.Metrics.incr m_blocked;
    if sid <> 0 then
      T.span_end sid
        ~attrs:[ ("verdict", T.S "blocked"); ("cache_hit", T.B false) ];
    Error "blocklisted"
  end
  else begin
    let key = cache_key st text in
    match Option.bind key (Cache.find st.cache) with
    | Some result ->
        st.stats.cache_hits <- st.stats.cache_hits + 1;
        T.Metrics.incr m_cache_hits;
        if sid <> 0 then T.span_end sid ~attrs:(piece_end_attrs ~cache_hit:true result);
        result
    | None ->
        let t0 = Guard.now () in
        let result =
          guarded st (fun () ->
              Pscommon.Chaos.probe "recover.piece";
              let prog = program_for st text in
              let env = fresh_env ~for_bytes:(String.length text) st in
              Pseval.Compile.run env prog)
        in
        let dt_ms = (Guard.now () -. t0) *. 1000.0 in
        T.Metrics.observe m_piece_ms dt_ms;
        T.Metrics.observe
          (T.Metrics.histogram ("recover.rule_ms." ^ kind))
          dt_ms;
        (match (key, result) with
        | Some k, Ok _ -> Cache.add st.cache k result
        | Some k, Error e when cacheable_error e -> Cache.add st.cache k result
        | _ -> ());
        if sid <> 0 then T.span_end sid ~attrs:(piece_end_attrs ~cache_hit:false result);
        result
  end

(* executing a piece that contains variables is pointless (and wrong) when
   some of them are unknown — Algorithm 1 line 15 *)
let has_unknown_variables st node =
  if st.opts.use_tracing then Tracer.unknown_variables st.table node <> []
  else Tracer.variables_read node <> []

let renderable value =
  match value with
  | Value.Null | Value.Bool _ -> None
  | Value.Arr a
    when Array.exists
           (function Value.Int _ | Value.Float _ -> true | _ -> false)
           a ->
      (* byte buffers (decoded binary payloads) have no faithful string
         form; the paper keeps such pieces (§IV-C4) *)
      None
  | v -> Value.to_source_opt v

(* ---------- recoverable nodes (paper §III-B1) ---------- *)

let is_recoverable (node : A.t) =
  match node.A.node with
  | A.Pipeline _ | A.Unary_expr _ | A.Binary_expr _ | A.Convert_expr _
  | A.Invoke_member _ | A.Sub_expr _ ->
      true
  | _ -> false

(* pieces that are already in recovered form make no progress *)
let is_literal_piece text =
  match Psparse.Parser.parse text with
  | Ok { A.node = A.Script_block { A.sb_statements = [ stmt ]; _ }; _ } -> (
      match stmt.A.node with
      | A.Pipeline [ { A.node = A.Command_expression e; _ } ] -> (
          match e.A.node with
          | A.String_const (_, (A.Single_quoted | A.Double_quoted))
          | A.Number_const _ ->
              true
          | _ -> false)
      | _ -> false)
  | Ok _ | Error _ -> false

(* asked of every recoverable node on every pass; a pure function of the
   text, so the per-text tier answers repeats without a parse *)
let trivially_recovered st text =
  Cache.fact st.cache Cache.Trivial text is_literal_piece

(* ---------- Invoke-Expression identification (paper §III-B4) ---------- *)

let iex_names = [ "iex"; "invoke-expression" ]

let is_iex_name name =
  List.exists (fun n -> Strcase.equal n name) iex_names

(* evaluate a command-name expression with the traced context and check
   whether it spells Invoke-Expression *)
let resolves_to_iex st (name_expr : A.t) =
  match name_expr.A.node with
  | A.String_const (s, _) -> is_iex_name s
  | _ -> (
      if has_unknown_variables st name_expr then false
      else
        match invoke_piece ~kind:"command-name" st (A.text st.src name_expr) with
        | Ok (Value.Str s) -> is_iex_name (String.trim s)
        | Ok _ | Error _ -> false)

let is_powershell_name name =
  List.exists
    (fun n -> Strcase.equal n name)
    [ "powershell"; "powershell.exe"; "pwsh"; "pwsh.exe" ]

(* -EncodedCommand parameter in any auto-completed spelling (paper: lowercase
   then '-encodedcommand'.StartsWith($param)) *)
let is_encoded_command_param p =
  let p = Strcase.lower p in
  let p = if p <> "" && p.[0] = '-' then String.sub p 1 (String.length p - 1) else p in
  let p = if p <> "" && p.[String.length p - 1] = ':' then String.sub p 0 (String.length p - 1) else p in
  String.length p > 0 && p.[0] = 'e' && Strcase.starts_with ~prefix:p "encodedcommand"

let is_command_param p =
  let p = Strcase.lower p in
  let p = if p <> "" && p.[0] = '-' then String.sub p 1 (String.length p - 1) else p in
  let p = if p <> "" && p.[String.length p - 1] = ':' then String.sub p 0 (String.length p - 1) else p in
  String.length p > 0 && p.[0] = 'c' && Strcase.starts_with ~prefix:p "command"

(* extract the single expression argument of a command *)
let command_arguments (cmd : A.command) =
  List.filter_map
    (function A.Elem_argument a -> Some a | _ -> None)
    cmd.A.cmd_elements

let eval_payload st (arg : A.t) =
  match arg.A.node with
  | A.String_const (s, _) -> Some s  (* literal or bareword argument *)
  | _ ->
      if has_unknown_variables st arg then None
      else
        match invoke_piece ~kind:"payload" st (A.text st.src arg) with
        | Ok (Value.Str s) -> Some s
        | Ok _ | Error _ -> None

(* payload of a single command element when it is an IEX / powershell
   invocation *)
let payload_of_command st (cmd : A.command) ~piped_input =
    match cmd.A.cmd_elements with
    | A.Elem_name name_expr :: _ -> (
        let is_iex =
          match name_expr.A.node with
          | A.String_const (s, A.Bare) -> is_iex_name s
          | _ -> (
              match cmd.A.cmd_invocation with
              | A.Inv_call | A.Inv_dot -> resolves_to_iex st name_expr
              | A.Inv_normal -> false)
        in
        if is_iex then
          match (command_arguments cmd, piped_input) with
          | [ arg ], None -> eval_payload st arg
          | [], Some payload -> Some payload
          | _ -> None
        else
          let is_ps =
            match name_expr.A.node with
            | A.String_const (s, A.Bare) -> is_powershell_name s
            | _ -> false
          in
          if is_ps then begin
            (* find -EncodedCommand / -Command and its value, which is
               either colon-attached or the following argument *)
            let decode_enc v =
              match eval_payload st v with
              | Some b64 -> (
                  match Encoding.Base64.decode b64 with
                  | Ok bytes -> Some (Encoding.Utf16.decode_lossy bytes)
                  | Error _ -> None)
              | None -> None
            in
            let rec find = function
              | [] -> None
              | A.Elem_parameter (p, Some v) :: _ when is_encoded_command_param p ->
                  decode_enc v
              | A.Elem_parameter (p, None) :: A.Elem_argument v :: _
                when is_encoded_command_param p ->
                  decode_enc v
              | A.Elem_parameter (p, Some v) :: _ when is_command_param p ->
                  eval_payload st v
              | A.Elem_parameter (p, None) :: A.Elem_argument v :: _
                when is_command_param p ->
                  eval_payload st v
              | _ :: rest -> find rest
            in
            find cmd.A.cmd_elements
          end
          else None)
    | _ -> None

(* A statement-level multi-layer unwrap opportunity: returns the decoded
   payload script when the statement is an invocation of IEX/powershell. *)
let multilayer_payload st (stmt : A.t) =
  match stmt.A.node with
  | A.Pipeline [ { A.node = A.Command cmd; _ } ] ->
      payload_of_command st cmd ~piped_input:None
  | A.Pipeline elems when List.length elems > 1 -> (
      (* <expr or commands> | iex : last element is the invoker *)
      match List.rev elems with
      | { A.node = A.Command cmd; _ } :: prefix_rev -> (
          match cmd.A.cmd_elements with
          | [ A.Elem_name name_expr ] -> (
              let is_iex =
                match name_expr.A.node with
                | A.String_const (s, A.Bare) -> is_iex_name s
                | _ -> resolves_to_iex st name_expr
              in
              if not is_iex then None
              else
                let prefix = List.rev prefix_rev in
                let prefix_text =
                  let first = List.hd prefix and last = List.nth prefix (List.length prefix - 1) in
                  Extent.text st.src (Extent.union first.A.extent last.A.extent)
                in
                let unknown =
                  List.exists (fun e -> has_unknown_variables st e) prefix
                in
                if unknown then None
                else
                  match invoke_piece ~kind:"pipeline-prefix" st prefix_text with
                  | Ok (Value.Str s) -> Some s
                  | Ok _ | Error _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* render a recursively-deobfuscated payload so it can replace a node in a
   non-statement position: multi-statement payloads are wrapped in $( ) *)
let inline_form recovered =
  let trimmed = String.trim recovered in
  let single_statement =
    match Psparse.Parser.parse trimmed with
    | Ok { A.node = A.Script_block { A.sb_statements = [ _ ]; _ }; _ } -> true
    | Ok _ | Error _ -> false
  in
  if single_statement && not (String.contains trimmed '\n') then trimmed
  else Printf.sprintf "$(%s)" trimmed

(* ---------- the pass ---------- *)

let rec recover_in_node st (node : A.t) =
  if is_recoverable node && not (A.children node = []) then begin
    let text = A.text st.src node in
    let recovered =
      if trivially_recovered st text then None
      else if has_unknown_variables st node then None
      else
        match invoke_piece ~kind:(A.kind_name node) st text with
        | Ok value -> (
            match renderable value with
            | Some rendered
              when rendered <> String.trim text
                   (* replacing a piece with something longer is not
                      recovery — it re-encodes the obfuscation *)
                   && String.length rendered <= String.length text + 16 ->
                Some rendered
            | Some _ | None -> None)
        | Error _ -> None
    in
    match recovered with
    | Some rendered ->
        if add_edit st ~kind:"piece" node.A.extent rendered then begin
          st.stats.pieces_recovered <- st.stats.pieces_recovered + 1;
          T.Metrics.incr m_recovered
        end
        else descend st node
    | None -> descend st node
  end
  else descend st node

and descend st node =
  match node.A.node with
  | A.Variable_expr v -> substitute_variable st node v
  | A.Expandable_string (_, parts) ->
      List.iter
        (function
          | A.Part_variable (v, extent) -> substitute_in_string st extent v
          | A.Part_subexpr e -> recover_in_node st e
          | A.Part_text _ -> ())
        parts
  | _ -> List.iter (recover_in_node st) (A.children node)

and substitute_variable st node v =
  if st.opts.use_tracing && not v.A.var_splat then
    match Tracer.lookup st.table v.A.var_name with
    | Some ((Value.Str _ | Value.Int _ | Value.Float _ | Value.Char _) as value) -> (
        match Value.to_source_opt value with
        | Some rendered ->
            if add_edit st ~kind:"substitute" node.A.extent rendered then
              note_substitute st v.A.var_name
        | None -> ())
    | Some _ | None -> ()

and substitute_in_string st extent v =
  (* inside a double-quoted string: splice the raw value only when it cannot
     change the string's parse *)
  if st.opts.use_tracing then
    match Tracer.lookup st.table v.A.var_name with
    | Some (Value.Str s)
      when String.for_all
             (fun c ->
               match c with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | ' ' | '.' | ',' | ':'
               | ';' | '/' | '\\' | '-' | '_' | '?' | '=' | '&' | '%' | '(' | ')' ->
                   true
               | _ -> false)
             s ->
        if add_edit st ~kind:"substitute" extent s then
          note_substitute st v.A.var_name
    | Some (Value.Int n) ->
        ignore (add_edit st ~kind:"substitute" extent (string_of_int n))
    | Some _ | None -> ()

(* record/evict symbol-table entries for an assignment statement *)
let trace_assignment st ~in_guard (stmt : A.t) =
  match stmt.A.node with
  | A.Assignment (op, lhs, rhs) -> (
      let target =
        match lhs.A.node with
        | A.Variable_expr v when not (String.contains v.A.var_name ':') ->
            Some v.A.var_name
        | A.Convert_expr (_, { A.node = A.Variable_expr v; _ }) -> Some v.A.var_name
        | _ -> None
      in
      match target with
      | None -> ()
      | Some name ->
          if in_guard || not st.opts.use_tracing then Tracer.remove st.table name
          else if Tracer.unknown_variables st.table rhs <> [] then
            Tracer.remove st.table name
          else if
            st.opts.use_blocklist && blocked st.cache (A.text st.src rhs)
          then Tracer.remove st.table name
          else begin
            (* compute the assigned value by executing the whole assignment *)
            let traced =
              guarded st (fun () ->
                  let text = A.text st.src stmt in
                  let prog = program_for st text in
                  let env = fresh_env ~for_bytes:(String.length text) st in
                  (match Tracer.lookup st.table name with
                  | Some v -> Pseval.Env.set_var env name v
                  | None -> ());
                  match Pseval.Compile.run_script env prog with
                  | Ok _ -> (
                      ignore op;
                      Ok (Pseval.Env.get_var env name))
                  | Error _ -> Error "evaluation failed")
            in
            match traced with
            | Ok (Some value) -> Tracer.record st.table name value
            | Ok None | Error _ -> Tracer.remove st.table name
          end)
  | _ -> ()

let rec process_statement st ~in_guard (stmt : A.t) =
  match stmt.A.node with
  | A.Assignment (_, _, rhs) ->
      (match
         if st.opts.use_multilayer && st.depth < st.opts.max_depth then
           multilayer_payload st rhs
         else None
       with
      | Some payload ->
          let recovered = st.deobfuscate ~depth:(st.depth + 1) payload in
          if add_edit st ~kind:"unwrap" rhs.A.extent (inline_form recovered) then
            note_unwrap st payload
          else recover_in_node st rhs
      | None -> recover_in_node st rhs);
      trace_assignment st ~in_guard stmt
  | A.Pipeline elems -> (
      let unwrapped_whole =
        match
          if st.opts.use_multilayer && st.depth < st.opts.max_depth then
            multilayer_payload st stmt
          else None
        with
        | Some payload ->
            let recovered = st.deobfuscate ~depth:(st.depth + 1) payload in
            if add_edit st ~kind:"unwrap" stmt.A.extent recovered then begin
              note_unwrap st payload;
              true
            end
            else false
        | None -> false
      in
      match unwrapped_whole with
      | true -> ()
      | false ->
          (* an IEX invocation that is one element of a longer pipe is
             replaced element-wise: iex(<enc>) | out-null *)
          let unwrapped_any = ref false in
          if st.opts.use_multilayer && st.depth < st.opts.max_depth
             && List.length elems > 1
          then
            List.iter
              (fun elem ->
                match elem.A.node with
                | A.Command cmd -> (
                    match payload_of_command st cmd ~piped_input:None with
                    | Some payload ->
                        let recovered = st.deobfuscate ~depth:(st.depth + 1) payload in
                        if add_edit st ~kind:"unwrap" elem.A.extent (inline_form recovered)
                        then begin
                          note_unwrap st payload;
                          unwrapped_any := true
                        end
                    | None -> ())
                | _ -> ())
              elems;
          if not !unwrapped_any then recover_in_node st stmt)
  | A.If_stmt (clauses, else_branch) ->
      List.iter
        (fun (cond, body) ->
          recover_in_node st cond;
          process_block st ~in_guard:true body)
        clauses;
      (match else_branch with
      | Some body -> process_block st ~in_guard:true body
      | None -> ());
      Tracer.evict_assigned st.table stmt
  (* loop bodies run many times: a variable assigned anywhere in the loop
     must be evicted {e before} the body is scanned, or its pre-loop value
     would be substituted into the body and fold a loop-carried update
     wrongly ($x = $x + 'b' with $x traced as 'a' becomes $x = 'ab').
     Branch bodies (if/switch) run at most once from the entry state, so
     substituting entry values there stays sound — they evict after. *)
  | A.While_stmt (cond, body) | A.Do_while_stmt (body, cond) | A.Do_until_stmt (body, cond) ->
      Tracer.evict_assigned st.table stmt;
      recover_in_node st cond;
      process_block st ~in_guard:true body;
      (* scanning the body re-records the loop's own assignments at their
         single-iteration values; evict again so code after the loop never
         sees them as traceable *)
      Tracer.evict_assigned st.table stmt
  | A.For_stmt (init, cond, step, body) ->
      Tracer.evict_assigned st.table stmt;
      (match init with Some s -> process_statement st ~in_guard:true s | None -> ());
      (match cond with Some c -> recover_in_node st c | None -> ());
      (match step with Some s -> process_statement st ~in_guard:true s | None -> ());
      process_block st ~in_guard:true body;
      Tracer.evict_assigned st.table stmt
  | A.Foreach_stmt (_, coll, body) ->
      Tracer.evict_assigned st.table stmt;
      recover_in_node st coll;
      process_block st ~in_guard:true body;
      Tracer.evict_assigned st.table stmt
  | A.Switch_stmt (value, cases, default) ->
      recover_in_node st value;
      List.iter (fun (_, body) -> process_block st ~in_guard:true body) cases;
      (match default with Some b -> process_block st ~in_guard:true b | None -> ());
      Tracer.evict_assigned st.table stmt
  | A.Function_def (_, _, body) -> process_block st ~in_guard:true body
  | A.Try_stmt (body, catches, finally) ->
      process_block st ~in_guard:true body;
      List.iter (fun (_, b) -> process_block st ~in_guard:true b) catches;
      (match finally with Some b -> process_block st ~in_guard:true b | None -> ());
      Tracer.evict_assigned st.table stmt
  | A.Return_stmt (Some e) | A.Throw_stmt (Some e) | A.Exit_stmt (Some e) ->
      recover_in_node st e
  | A.Return_stmt None | A.Throw_stmt None | A.Exit_stmt None | A.Break_stmt
  | A.Continue_stmt | A.Param_block _ | A.Trap_stmt _ ->
      ()
  | A.Named_block (_, body) ->
      process_block st ~in_guard:true body;
      Tracer.evict_assigned st.table stmt
  | A.Statement_block stmts | A.Script_block { A.sb_statements = stmts; _ } ->
      List.iter (process_statement st ~in_guard) stmts
  | _ -> recover_in_node st stmt

and process_block st ~in_guard (block : A.t) =
  match block.A.node with
  | A.Statement_block stmts | A.Script_block { A.sb_statements = stmts; _ } ->
      List.iter (process_statement st ~in_guard) stmts
  | _ -> process_statement st ~in_guard block

(** One recovery pass over an already-parsed script.  [deobfuscate] is the
    full engine used to process unwrapped layer payloads recursively.
    Returns [None] when the pass changed nothing (no edits, or edits that
    would break the script) and [Some (patched, ast)] — the new text with
    its validated parse, ready to thread into the next stage — otherwise. *)
let run_pass_parsed ~opts ~stats ~cache ~deobfuscate ~depth ?log ?(pass = 0)
    ?(suppress = []) ~ast src =
  let st =
    { opts; stats; cache; src; table = Tracer.create (); edits = []; suppress;
      deobfuscate; depth }
  in
  (match ast.A.node with
  | A.Script_block sb ->
      List.iter (process_statement st ~in_guard:false) sb.A.sb_statements
  | _ -> process_statement st ~in_guard:false ast);
  if st.edits = [] then None
  else
    let pairs = List.rev st.edits in
    match Patch.apply src (List.map fst pairs) with
    | patched when not (String.equal patched src) -> (
        match Psparse.Parser.parse_full patched with
        | Ok parsed ->
            (* journal only what was applied and validated *)
            stats.edits_recorded <-
              stats.edits_recorded
              + List.length (Patch.normalize (List.map fst pairs));
            Option.iter
              (fun l -> Editlog.record_stage l ~phase:"recover" ~pass ~src pairs)
              log;
            Some parsed
        | Error _ -> None)
    | _ -> None
    | exception Invalid_argument _ -> None

let text_and_ast =
  Option.map (fun p -> (p.Psparse.Parser.text, p.Psparse.Parser.ast))

let run_pass ~opts ~stats ~cache ~deobfuscate ~depth ?log ?pass ?suppress ~ast
    src =
  text_and_ast
    (run_pass_parsed ~opts ~stats ~cache ~deobfuscate ~depth ?log ?pass
       ?suppress ~ast src)

(* ---------- dynamic recovery (PowerPeeler-style value provenance) ---------- *)

(* The static tracer deliberately skips loop- and conditional-carried
   assignments (Algorithm 1 guards them out), so loop-built strings,
   += / -join accumulators and conditional payload assembly stay
   obfuscated.  Dynamic recovery executes the script's top level in the
   sandbox with a provenance recorder installed, and replaces each such
   region with literal assignments of the bindings it actually changed —
   but only when the execution of the region was pure (no events, no
   unresolved commands, no pipeline or host output), every changed value
   has a faithful source rendering, and the provenance map proves each
   final value was defined inside the region.  Anything else degrades to
   the static result.  Every replacement is journaled like any other
   recovery edit, so the verify gate bisects and rolls back dynamic edits
   individually and Quarantine can circuit-break the rule keys
   (recover.dynamic.loop / recover.dynamic.conditional). *)

let dynamic_kind (stmt : A.t) =
  match stmt.A.node with
  | A.While_stmt _ | A.Do_while_stmt _ | A.Do_until_stmt _ | A.For_stmt _
  | A.Foreach_stmt _ ->
      Some "dynamic.loop"
  | A.If_stmt _ | A.Switch_stmt _ -> Some "dynamic.conditional"
  | _ -> None

let contains_function_def node =
  A.fold_pre_order
    (fun acc n -> acc || match n.A.node with A.Function_def _ -> true | _ -> false)
    false node

(* the rendered view of the global bindings: comparing rendered strings
   (not values) makes in-place array mutation visible across a snapshot,
   because re-rendering observes the mutation where a shared reference
   would not *)
let rendered_bindings env =
  List.map
    (fun (name, v) -> (name, Value.to_source_opt v))
    (Pseval.Env.global_bindings env)

let run_dynamic_parsed ~opts ~stats ?cache ?ast ?log ?(pass = 0)
    ?(suppress = []) src =
  if not opts.use_dynamic then None
  else
    match
      match ast with Some ast -> Ok ast | None -> Psparse.Parser.parse src
    with
    | Error _ -> None
    | Ok ast ->
        let statements =
          match ast.A.node with
          | A.Script_block sb -> sb.A.sb_statements
          | _ -> [ ast ]
        in
        let is_candidate stmt =
          match dynamic_kind stmt with
          | None -> None
          | Some kind ->
              if
                Tracer.assigned_names stmt = []
                || contains_function_def stmt
                || (opts.use_blocklist
                   &&
                   let text = A.text src stmt in
                   match cache with
                   | Some cache -> blocked cache text
                   | None -> Blocklist.mentions_blocked_command text)
              then None
              else Some kind
        in
        if not (List.exists (fun s -> is_candidate s <> None) statements) then None
        else begin
          let limits =
            { Pseval.Env.default_limits with
              Pseval.Env.max_steps = opts.dynamic_step_budget }
          in
          let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox ~limits () in
          let prov = Pseval.Provenance.create () in
          env.Pseval.Env.provenance <- Some prov;
          let ctx = { Pseval.Interp.env; src } in
          let edits = ref [] in
          let halted = ref false in
          let unverifiable () =
            stats.dynamic_unverifiable <- stats.dynamic_unverifiable + 1;
            T.Metrics.incr m_dyn_unverifiable
          in
          let attempt stmt kind =
            stats.dynamic_attempted <- stats.dynamic_attempted + 1;
            T.Metrics.incr m_dyn_attempted;
            Chaos.probe "recover.dynamic";
            let before = rendered_bindings env in
            let events0 = List.length env.Pseval.Env.events in
            let cmds0 = List.length env.Pseval.Env.command_log in
            let sunk0 = List.length env.Pseval.Env.output_sink in
            let out = Pseval.Interp.eval_statement ctx stmt in
            let pure =
              out = []
              && List.length env.Pseval.Env.events = events0
              && List.length env.Pseval.Env.command_log = cmds0
              && List.length env.Pseval.Env.output_sink = sunk0
            in
            if not pure then unverifiable ()
            else begin
              let after = rendered_bindings env in
              let changed =
                List.filter
                  (fun (name, rendered) ->
                    match List.assoc_opt name before with
                    | Some prior -> prior <> rendered
                    | None -> true)
                  after
              in
              if changed = [] then ()
              else if List.exists (fun (_, r) -> r = None) changed then
                unverifiable ()
              else begin
                (* provenance is load-bearing: each changed binding must be
                   proven to have been last defined inside this region *)
                let proven =
                  Pseval.Provenance.poisoned prov = None
                  && List.for_all
                       (fun (name, _) ->
                         match Pseval.Provenance.last_write prov name with
                         | Some r -> Extent.contains stmt.A.extent r.Pseval.Provenance.extent
                         | None -> false)
                       changed
                in
                if not proven then unverifiable ()
                else begin
                  let ordered =
                    List.map
                      (fun (name, rendered) ->
                        let r = Option.get (Pseval.Provenance.last_write prov name) in
                        (r.Pseval.Provenance.step, r.Pseval.Provenance.spelled,
                         Option.get rendered))
                      changed
                    |> List.sort compare
                  in
                  let replacement =
                    String.concat "\n"
                      (List.map
                         (fun (_, spelled, rendered) ->
                           Printf.sprintf "$%s = %s" spelled rendered)
                         ordered)
                  in
                  let keep =
                    Quarantine.admits ~phase:"recover" ~kind
                    && not
                         (Editlog.suppressed suppress ~phase:"recover"
                            ~before:(Extent.text src stmt.A.extent)
                            ~after:replacement)
                  in
                  if keep then begin
                    edits := (Patch.edit stmt.A.extent replacement, kind) :: !edits;
                    stats.dynamic_recovered <- stats.dynamic_recovered + 1;
                    T.Metrics.incr m_dyn_recovered;
                    if T.active () then
                      T.event "recover.dynamic"
                        ~attrs:
                          [ ("kind", T.S kind);
                            ("bindings", T.I (List.length ordered)) ]
                  end
                end
              end
            end
          in
          List.iter
            (fun stmt ->
              if not !halted then
                match is_candidate stmt with
                | Some kind -> (
                    try attempt stmt kind
                    with e when Pseval.Interp.describe_exception e <> None ->
                      (* region execution failed: state past this point is
                         untrusted, so the rest degrades to static-only *)
                      halted := true;
                      unverifiable ())
                | None -> (
                    try ignore (Pseval.Interp.eval_statement ctx stmt) with
                    | Pseval.Interp.Return_exc _ | Pseval.Interp.Exit_exc ->
                        halted := true
                    | e when Pseval.Interp.describe_exception e <> None ->
                        halted := true))
            statements;
          if !edits = [] then None
          else
            let pairs = List.rev !edits in
            match Patch.apply src (List.map fst pairs) with
            | patched when not (String.equal patched src) -> (
                match Psparse.Parser.parse_full patched with
                | Ok parsed ->
                    stats.edits_recorded <-
                      stats.edits_recorded
                      + List.length (Patch.normalize (List.map fst pairs));
                    Option.iter
                      (fun l ->
                        Editlog.record_stage l ~phase:"recover" ~pass ~src pairs)
                      log;
                    Some parsed
                | Error _ -> None)
            | _ -> None
            | exception Invalid_argument _ -> None
        end

let run_dynamic ~opts ~stats ?log ?pass ?suppress src =
  text_and_ast (run_dynamic_parsed ~opts ~stats ?log ?pass ?suppress src)
