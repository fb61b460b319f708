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
let m_substituted = T.Metrics.counter "recover.variables_substituted"
let m_unwrapped = T.Metrics.counter "recover.layers_unwrapped"
let m_piece_ms = T.Metrics.histogram "recover.piece_ms"

(* per rule kind, registered on the kind's first piece *)
let m_rule = T.Metrics.counter_family "recover.rule."
let m_rule_ms = T.Metrics.histogram_family "recover.rule_ms."
let m_dyn_attempted = T.Metrics.counter "recover.dynamic.attempted"
let m_dyn_recovered = T.Metrics.counter "recover.dynamic.recovered"
let m_dyn_unverifiable = T.Metrics.counter "recover.dynamic.unverifiable"

type options = {
  use_tracing : bool;  (** ablation: Algorithm 1 on/off *)
  use_blocklist : bool;  (** ablation: skip pieces naming blocked commands *)
  use_multilayer : bool;  (** ablation: IEX / -EncodedCommand unwrapping *)
  use_piece_cache : bool;  (** ablation: memoize piece invocations *)
  use_dynamic : bool;
      (** provenance-guided dynamic recovery of loop/conditional regions
          the static tracer skips; every edit still faces the verify gate *)
}

(* multi-layer recursion bound: a payload nested deeper is left for the
   next fixpoint pass *)
let max_depth = 16

let default_options =
  { use_tracing = true; use_blocklist = true; use_multilayer = true;
    use_piece_cache = true; use_dynamic = true }

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

   Results are content-addressed and mutex-guarded, so one cache is
   shared by every pool domain of a batch or daemon process.  Alongside
   the result tier, the piece tier memoizes on text alone what recovery
   asks of a piece before it runs it — its parse, whether it is already a
   literal, whether it names a blocked command — from one lexer run and
   one parse: none of the three has environment inputs, so an entry is
   shared even when the binding digest differs or result caching is
   ablated away.  The reference tier holds the verify gate's sandbox logs
   of original scripts.  Every tier is bounded alike: a tier holding its
   bound ([cap] entries, at most 512 for reference logs) is emptied when
   a new key arrives. *)
module Cache = struct
  (* One tier: a table of at most [cap] entries, emptied whole when a new
     key arrives at a full table; [dropped] counts the entries the clears
     discarded.  Callers hold the cache mutex. *)
  module Tier = struct
    type 'v t = {
      cap : int;
      table : (string, 'v) Hashtbl.t;
      mutable dropped : int;
    }

    let create cap = { cap; table = Hashtbl.create 64; dropped = 0 }

    (* [true] when the table was full and cleared to make room *)
    let add tier key v =
      let full =
        Hashtbl.length tier.table >= tier.cap
        && not (Hashtbl.mem tier.table key)
      in
      if full then begin
        tier.dropped <- tier.dropped + Hashtbl.length tier.table;
        Hashtbl.reset tier.table
      end;
      Hashtbl.replace tier.table key v;
      full

    let find tier key = Hashtbl.find_opt tier.table key
    let length tier = Hashtbl.length tier.table
  end

  (* hits per tier: the scrape endpoint's view of which tier answers *)
  let m_tier_result = T.Metrics.counter "recover.cache.tier.result"
  let m_tier_piece = T.Metrics.counter "recover.cache.tier.piece"
  let m_tier_reference = T.Metrics.counter "recover.cache.tier.reference"

  type entry = (Value.t, string) result

  type stats = {
    entries : int;
    hits : int;
    lookups : int;
    evictions : int;
  }

  type piece = {
    parsed : (A.t, string) result;
    trivial : bool;
    blocked : bool;
  }

  type t = {
    mu : Mutex.t;
    results : entry Tier.t;
    mutable hits : int;
    mutable lookups : int;
    pieces : piece Tier.t;
    references : (string list, string) result Tier.t;
  }

  let m_resets = T.Metrics.counter "recover.cache.resets"
  let m_entries = T.Metrics.gauge "recover.cache.entries"

  (* A reference log is a whole effect list, so its tier holds at most
     512: bounded at the daemon's [--cache-cap 16384] instead, it kept the
     logs of all 1 000 scripts of bench/perf's serve pool and raised the
     daemon's peak RSS by 0.5-4.3 MB over three runs. *)
  let create ?(cap = 2048) () =
    let cap = max 1 cap in
    { mu = Mutex.create ();
      results = Tier.create cap;
      hits = 0;
      lookups = 0;
      pieces = Tier.create cap;
      references = Tier.create (min cap 512) }

  let locked t f =
    Mutex.lock t.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

  let find t key =
    locked t (fun () ->
        t.lookups <- t.lookups + 1;
        let e = Tier.find t.results key in
        if Option.is_some e then begin
          t.hits <- t.hits + 1;
          T.Metrics.incr m_tier_result
        end;
        e)

  let add t key entry =
    locked t (fun () ->
        if Tier.add t.results key entry then T.Metrics.incr m_resets;
        (* last writer wins across domains — a gauge, not an exact census *)
        T.Metrics.set m_entries (Tier.length t.results))

  let stats t =
    locked t (fun () ->
        { entries = Tier.length t.results;
          hits = t.hits;
          lookups = t.lookups;
          evictions = t.results.Tier.dropped })

  (* ----- piece tier ----- *)

  (* pieces that are already in recovered form make no progress: the
     parse is one lone string or number literal *)
  let is_literal = function
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

  let make_piece text =
    match Pseval.Interp.lex_piece text with
    | Error e ->
        (* un-lexable pieces are never executed *)
        { parsed = Error e; trivial = false; blocked = true }
    | Ok toks ->
        let parsed = Pseval.Interp.parse_lexed_piece text toks in
        { parsed; trivial = is_literal parsed;
          blocked = Blocklist.names_blocked_command toks }

  (* A tier answers from its table or computes outside the lock and
     stores what [keep] admits; concurrent misses on one key compute
     twice, and the later store wins with an equal value. *)
  let memo t tier metric ~keep key compute =
    match locked t (fun () -> Tier.find tier key) with
    | Some v ->
        T.Metrics.incr metric;
        v
    | None ->
        let v = compute () in
        if keep v then locked t (fun () -> ignore (Tier.add tier key v));
        v

  (* What recovery asks of a piece text before it runs it depends on the
     text alone, so an entry is shared across binding digests, passes,
     files and domains, and kept even when result caching is ablated off.
     ASTs are immutable, so one parse serves any number of concurrent
     evaluations. *)
  let piece t text =
    memo t t.pieces m_tier_piece ~keep:(fun _ -> true) text (fun () ->
        make_piece text)

  let piece_count t = locked t (fun () -> Tier.length t.pieces)

  (* ----- reference tier ----- *)

  (* a containment error depends on the moment of execution, so only
     [Ok] logs are kept *)
  let reference t key run =
    memo t t.references m_tier_reference ~keep:Result.is_ok key run
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
  payloads : Pseval.Env.payloads option;
      (** the request's decoded IEX payloads, for the verify sandbox *)
}

(* [false] when the gate suppressed this edit on a rollback re-run — the
   caller then skips its stats/telemetry notes and falls back to whatever
   it would have done had the edit not been possible *)
let add_edit st ~kind extent replacement =
  let keep =
    Editlog.admits ~suppress:st.suppress ~phase:"recover" ~kind ~src:st.src
      ~extent ~after:replacement
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

(* a piece runs under the budget of its own text *)
let fresh_env ~for_bytes st =
  let limits =
    { Pseval.Env.default_limits with
      Pseval.Env.max_steps = Pseval.Env.step_budget ~bytes:for_bytes }
  in
  let env = Pseval.Env.create ~mode:Pseval.Env.Recovery ~limits () in
  if st.opts.use_tracing then Tracer.seed_env st.table env;
  env

(* run one piece under a guard: a stack overflow on a pathological piece, a
   wall-clock overrun, or any stray exception degrades that piece instead of
   aborting the pass *)
let guarded f =
  match Guard.protect f with
  | Ok r -> r
  | Error failure -> Error (Guard.failure_label failure)

(* guard failures that depend on the moment of execution (wall clock,
   current recursion depth) must not be replayed from the cache *)
let cacheable_error = function
  | "timeout" | "stack-exhausted" -> false
  | _ -> true

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
    (AST node kind, or the call-site role for command names / payloads).
    With [payload], an evaluation that turns out self-contained is also
    recorded in [st.payloads], under the evaluation digest of the piece
    tier's parse of [text]. *)
let invoke_piece ?(kind = "piece") ?(payload = false) st text =
  st.stats.pieces_attempted <- st.stats.pieces_attempted + 1;
  T.Metrics.incr m_attempted;
  (* per-kind attribution: which syntactic shapes the recovery budget is
     actually spent on (counter here, latency histogram on the miss path) *)
  T.Metrics.incr (T.Metrics.member m_rule kind);
  let sid =
    if T.active () then
      T.span_begin "recover.piece"
        ~attrs:
          [ ("kind", T.S kind); ("bytes_in", T.I (String.length text)) ]
    else 0
  in
  (* the blocklist test (paper §III-B2) and the parse come from one entry
     of the piece tier *)
  let piece = Cache.piece st.cache text in
  if st.opts.use_blocklist && piece.Cache.blocked then begin
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
        if sid <> 0 then T.span_end sid ~attrs:(piece_end_attrs ~cache_hit:true result);
        result
    | None ->
        let t0 = Guard.now () in
        let result =
          guarded (fun () ->
              Pscommon.Chaos.probe "recover.piece";
              let env = fresh_env ~for_bytes:(String.length text) st in
              match st.payloads with
              | Some table when payload ->
                  let result, decoded =
                    Pseval.Interp.invoke_payload env ~src:text
                      piece.Cache.parsed
                  in
                  Option.iter
                    (fun (digest, p) -> Hashtbl.replace table digest p)
                    decoded;
                  result
              | Some _ | None ->
                  Pseval.Interp.invoke_parsed env ~src:text piece.Cache.parsed)
        in
        let dt_ms = (Guard.now () -. t0) *. 1000.0 in
        T.Metrics.observe m_piece_ms dt_ms;
        T.Metrics.observe (T.Metrics.member m_rule_ms kind) dt_ms;
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

(* asked of every recoverable node on every pass; the piece tier answers
   repeats without a parse, and the entry's parse serves the invocation *)
let trivially_recovered st text = (Cache.piece st.cache text).Cache.trivial

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
   then '-encodedcommand'.StartsWith($param)); [key] is the parameter name
   the parser folded, without its dash and colon *)
let is_encoded_command_param key =
  key <> "" && String.starts_with ~prefix:key "encodedcommand"

let is_command_param key =
  key <> "" && String.starts_with ~prefix:key "command"

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
        match
          invoke_piece ~kind:"payload" ~payload:true st (A.text st.src arg)
        with
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
              | A.Elem_parameter ({ A.key = p; _ }, Some v) :: _
                when is_encoded_command_param p ->
                  decode_enc v
              | A.Elem_parameter ({ A.key = p; _ }, None) :: A.Elem_argument v :: _
                when is_encoded_command_param p ->
                  decode_enc v
              | A.Elem_parameter ({ A.key = p; _ }, Some v) :: _
                when is_command_param p ->
                  eval_payload st v
              | A.Elem_parameter ({ A.key = p; _ }, None) :: A.Elem_argument v :: _
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
                  match
                    invoke_piece ~kind:"pipeline-prefix" ~payload:true st
                      prefix_text
                  with
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
        | A.Variable_expr v when not (String.contains v.A.var_name ':') -> Some v
        | A.Convert_expr (_, { A.node = A.Variable_expr v; _ }) -> Some v
        | _ -> None
      in
      match target with
      | None -> ()
      | Some v ->
          let name = v.A.var_name in
          if in_guard || not st.opts.use_tracing then Tracer.remove st.table name
          else if Tracer.unknown_variables st.table rhs <> [] then
            Tracer.remove st.table name
          else if
            st.opts.use_blocklist
            && (Cache.piece st.cache (A.text st.src rhs)).Cache.blocked
          then Tracer.remove st.table name
          else begin
            (* compute the assigned value by executing the whole assignment *)
            let traced =
              guarded (fun () ->
                  let text = A.text st.src stmt in
                  let parsed = (Cache.piece st.cache text).Cache.parsed in
                  let env = fresh_env ~for_bytes:(String.length text) st in
                  (match Tracer.lookup st.table name with
                  | Some value -> Pseval.Env.set_var env v.A.var_key value
                  | None -> ());
                  match Pseval.Interp.run_parsed env ~src:text parsed with
                  | Ok _ -> (
                      ignore op;
                      Ok (Pseval.Env.get_var env v.A.var_key))
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
         if st.opts.use_multilayer && st.depth < max_depth then
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
          if st.opts.use_multilayer && st.depth < max_depth then
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
          if st.opts.use_multilayer && st.depth < max_depth
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

(* a recovery stage lands like any other; [edits_recorded] counts what
   was applied, the size of the journal the gate bisects *)
let land_recovery ~stats ?log ~pass ~src pairs =
  match Editlog.land_edits ?log ~phase:"recover" ~pass ~src pairs with
  | None -> None
  | Some (parsed, applied) ->
      stats.edits_recorded <- stats.edits_recorded + applied;
      Some parsed

(** One recovery pass over an already-parsed script.  [deobfuscate] is the
    full engine used to process unwrapped layer payloads recursively.
    Returns [None] when the pass changed nothing (no edits, or edits that
    would break the script) and [Some (patched, ast)] — the new text with
    its validated parse, ready to thread into the next stage — otherwise. *)
let run_pass_parsed ~opts ~stats ~cache ~deobfuscate ~depth ?log ?(pass = 0)
    ?(suppress = []) ?payloads ~ast src =
  let st =
    { opts; stats; cache; src; table = Tracer.create (); edits = []; suppress;
      deobfuscate; depth; payloads }
  in
  (match ast.A.node with
  | A.Script_block sb ->
      List.iter (process_statement st ~in_guard:false) sb.A.sb_statements
  | _ -> process_statement st ~in_guard:false ast);
  land_recovery ~stats ?log ~pass ~src (List.rev st.edits)

let run_pass ~opts ~stats ~cache ~deobfuscate ~depth ?log ?pass ?suppress ~ast
    src =
  Option.map Psparse.Parser.text_and_ast
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

let run_dynamic_parsed ~opts ~stats ?ast ?log ?(pass = 0)
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
                   && Blocklist.mentions_blocked_command (A.text src stmt))
              then None
              else Some kind
        in
        if not (List.exists (fun s -> is_candidate s <> None) statements) then None
        else begin
          let limits =
            { Pseval.Env.default_limits with
              Pseval.Env.max_steps =
                Pseval.Env.step_budget ~bytes:(String.length src) }
          in
          let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox ~limits () in
          let prov = Pseval.Provenance.create () in
          env.Pseval.Env.provenance <- Some prov;
          let ctx =
            { Pseval.Interp.env; src; src_exact = true }
          in
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
                  if
                    Editlog.admits ~suppress ~phase:"recover" ~kind ~src
                      ~extent:stmt.A.extent ~after:replacement
                  then begin
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
          land_recovery ~stats ?log ~pass ~src (List.rev !edits)
        end

let run_dynamic ~opts ~stats ?log ?pass ?suppress src =
  Option.map Psparse.Parser.text_and_ast
    (run_dynamic_parsed ~opts ~stats ?log ?pass ?suppress src)
