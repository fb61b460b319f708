(** Invoke-Deobfuscation — the full pipeline (paper Fig 2).

    Phases: token parsing → variable tracing & recovery based on AST
    (repeated to a fixpoint, unwrapping Invoke-Expression layers) → renaming
    and reformatting.  Each phase's output is syntax-checked and the phase
    is skipped when it breaks the script. *)

type options = {
  token_phase : bool;
  recovery : recovery_options;
  rename : bool;
  reformat : bool;
  max_iterations : int;  (** fixpoint bound for the recovery loop *)
  partial : bool;
      (** when the whole file fails to parse, segment it into maximal
          parseable regions and deobfuscate each independently *)
}

and recovery_options = Recover.options = {
  use_tracing : bool;
  use_blocklist : bool;
  use_multilayer : bool;
  use_piece_cache : bool;
  max_depth : int;
  piece_step_budget : int;
  piece_timeout_s : float;
  use_dynamic : bool;
  dynamic_step_budget : int;
}

let default_options =
  { token_phase = true; recovery = Recover.default_options; rename = true;
    reformat = true; max_iterations = 8; partial = true }

type result = {
  output : string;
  stats : Recover.stats;
  iterations : int;
  changed : bool;  (** false when the tool returned the input unchanged *)
}

module Parser = Psparse.Parser

(* an IEX invocation whose payload is not a plain literal: the code it will
   run at run time is invisible to renaming *)
let residual_dynamic_iex ast =
  let module A = Psast.Ast in
  let is_iex_name s =
    Pscommon.Strcase.equal s "iex"
    || Pscommon.Strcase.equal s "invoke-expression"
  in
  let found = ref false in
  A.iter_post_order
    (fun n ->
      match n.A.node with
      | A.Command cmd -> (
          let name_is_iex =
            match cmd.A.cmd_elements with
            | A.Elem_name { A.node = A.String_const (s, _); _ } :: _ ->
                is_iex_name s
            | A.Elem_name
                { A.node =
                    A.Paren_expr
                      { A.node =
                          A.Pipeline
                            [ { A.node =
                                  A.Command_expression
                                    { A.node = A.String_const (s, _); _ };
                                _ } ];
                        _ };
                  _ }
              :: _ ->
                is_iex_name s
            | _ -> false
          in
          if name_is_iex then
            let risky_arg =
              List.exists
                (function
                  | A.Elem_argument { A.node = A.String_const _; _ } ->
                      false
                  | A.Elem_argument a ->
                      (* dynamic payloads built from local variables can
                         name variables at run time; payloads with no
                         local reads (e.g. downloads) cannot *)
                      List.exists
                        (fun v -> not (Tracer.is_automatic v))
                        (Tracer.variables_read a)
                  | _ -> false)
                cmd.A.cmd_elements
            in
            if risky_arg then found := true)
      | _ -> ())
    ast;
  !found

(* unparseable payloads (recursive entry) make one vacuous pass, as the
   stage-by-stage loop always did *)
let vacuous_passes opts =
  if
    opts.max_iterations <= 0
    || Pscommon.Guard.expired (Pscommon.Guard.ambient_deadline ())
  then 0
  else 1

(* Phase 1: token parsing, on tokens the caller already lexed *)
let token_phase ~opts ?log ~suppress ~toks src =
  if opts.token_phase then
    Token_phase.run_parsed ?log ~pass:(-1) ~suppress ~toks src
  else None

(* Phase 2 driver: recovery based on AST, iterated to a fixpoint.  Returns
   the recovered text and the number of passes actually run (not the bound).
   The loop also stops when the ambient wall-clock deadline expires, keeping
   whatever partial recovery the completed passes produced.

   Each distinct text is lexed once and parsed once: every stage validates
   its own output with {!Parser.parse_full} and hands the tokens and AST on
   ({!Parser.parsed}), so the next stage neither re-lexes nor re-parses, and
   Simplify plus the syntax re-check are skipped outright when no stage
   produced an edit.

   [deobfuscate_at] takes a layer payload seen for the first time: it is
   lexed once, for the token phase and for the fixpoint's starting parse. *)
let rec deobfuscate_at ~opts ~stats ~cache ~depth ?log ?(suppress = []) src =
  match Pslex.Lexer.tokenize src with
  | Error _ -> (src, vacuous_passes opts)
  | Ok tokens -> (
      let start =
        match token_phase ~opts ?log ~suppress ~toks:tokens src with
        | Some _ as p -> p
        | None ->
            Result.to_option
              (Result.map
                 (fun ast -> { Parser.text = src; tokens; ast })
                 (Parser.parse_tokens src tokens))
      in
      match start with
      | None -> (src, vacuous_passes opts)
      | Some p ->
          let out, passes =
            fixpoint_parsed ~opts ~stats ~cache ~depth ?log ~suppress p
          in
          (out.Parser.text, passes))

(* the top-level input, parsed once by the engine's validity check *)
and deobfuscate_parsed ~opts ~stats ~cache ~depth ?log ?(suppress = [])
    (p : Parser.parsed) =
  let start =
    Option.value ~default:p
      (token_phase ~opts ?log ~suppress ~toks:p.Parser.tokens p.Parser.text)
  in
  fixpoint_parsed ~opts ~stats ~cache ~depth ?log ~suppress start

and fixpoint_parsed ~opts ~stats ~cache ~depth ?log ?(suppress = []) start =
  let deobfuscate ~depth payload =
    (* recursive entry used by multi-layer unwrapping; shares the piece
       cache — unwrapped layers repeat the outer layers' decode pieces.
       Suppressions apply at any depth (a rolled-back rewrite is unsafe
       wherever its text recurs), but only depth-0 stages are journaled:
       a nested layer's edits land inside the outer unwrap edit's [after]
       text, which is the unit the gate bisects. *)
    fst (deobfuscate_at ~opts ~stats ~cache ~depth ~suppress payload)
  in
  (* [simplify_pending] records whether the previous pass's Simplify landed
     edits (its output has not itself been simplified yet), forcing one
     more Simplify run even when Recover and Token_phase are quiescent *)
  let rec fixpoint i (current : Parser.parsed) simplify_pending =
    if i >= opts.max_iterations then (current, i)
    else if Pscommon.Guard.expired (Pscommon.Guard.ambient_deadline ()) then
      (current, i)
    else begin
      (* per-pass span: the per-pass timing breakdown the summed phase
         totals no longer carry lives here, in the trace *)
      let sid =
        if Pscommon.Telemetry.active () then
          Pscommon.Telemetry.span_begin "engine.pass"
            ~attrs:
              [ ("pass", Pscommon.Telemetry.I i);
                ("depth", Pscommon.Telemetry.I depth);
                ("bytes",
                 Pscommon.Telemetry.I (String.length current.Parser.text)) ]
        else 0
      in
      let finish_pass ~changed result =
        if sid <> 0 then
          Pscommon.Telemetry.span_end sid
            ~attrs:[ ("changed", Pscommon.Telemetry.B changed) ];
        result
      in
      let or_keep p = function
        | Some p' -> (p', true)
        | None -> (p, false)
      in
      let p1, recover_changed =
        or_keep current
          (Recover.run_pass_parsed ~opts:opts.recovery ~stats ~cache
             ~deobfuscate ~depth ?log ~pass:i ~suppress ~ast:current.Parser.ast
             current.Parser.text)
      in
      let p2, token_changed =
        or_keep p1
          (if opts.token_phase then
             Token_phase.run_parsed ?log ~pass:i ~suppress
               ~toks:p1.Parser.tokens p1.Parser.text
           else None)
      in
      if not (recover_changed || token_changed || simplify_pending) then
        (* nothing moved and the text is already simplify-stable: the
           fixpoint is reached without running Simplify or re-checking *)
        finish_pass ~changed:false (current, i + 1)
      else
        let p3, simplify_changed =
          or_keep p2
            (Simplify.run_parsed ?log ~pass:i ~suppress ~ast:p2.Parser.ast
               p2.Parser.text)
        in
        if String.equal p3.Parser.text current.Parser.text then
          finish_pass ~changed:false (current, i + 1)
        else begin
          ignore (finish_pass ~changed:true ());
          fixpoint (i + 1) p3 simplify_changed
        end
    end
  in
  fixpoint 0 start true

(* Renaming is skipped when an encoded payload survived recovery — its
   hidden code may define or reference variables by their original names at
   run time, and renaming the visible script would desynchronise the two. *)
let residual_encoded_parsed (p : Parser.parsed) =
  (* a) a powershell -e/-enc/-command invocation still present; decided on
     the token stream, so command text like Write-Error cannot shortcut it *)
  List.exists
    (fun t ->
      t.Pslex.Token.kind = Pslex.Token.Command_parameter
      && String.length t.Pslex.Token.content > 1
      && Char.lowercase_ascii t.Pslex.Token.content.[1] = 'e')
    p.Parser.tokens
  (* b) an Invoke-Expression whose argument is still dynamic *)
  || residual_dynamic_iex p.Parser.ast

(* Phase 3: rename and reformat.  Each step validates its own output and
   hands that parse on, so the result is known to parse. *)
let finalize_parsed ~options (recovered : Parser.parsed) =
  let renamed =
    if options.rename && not (residual_encoded_parsed recovered) then
      Rename.rename_parsed recovered
    else recovered
  in
  if options.reformat then Rename.reformat_parsed renamed else renamed

(* the string form, for region texts; a text that does not parse is left
   as it is *)
let finalize ~options recovered =
  match Parser.parse_full recovered with
  | Error _ -> recovered
  | Ok p -> (finalize_parsed ~options p).Parser.text

type failure_site = { phase : string; failure : Pscommon.Guard.failure }

type guarded = {
  result : result;
  failures : failure_site list;  (** contained degradations, in phase order *)
  timings : (string * float) list;
      (** wall milliseconds per phase, {e summed} per phase name in
          first-execution order — keys are unique, so the list is a valid
          JSON object; the per-pass breakdown lives in telemetry spans *)
  regions_total : int;
      (** segments produced by partial-parse recovery; 0 when the input
          parsed whole (or [partial] is off) *)
  regions_recovered : int;
      (** parseable regions that ran the pipeline to completion *)
  edit_log : Editlog.stage list;
      (** journal of every extent edit the run applied, in stage order;
          empty for the partial-parse (region) path, whose edits are local
          to region texts and cannot be replayed against the whole file *)
}

(* Sum [ms] into the entry for [phase], preserving first-use order — a
   phase that runs more than once (or is ever re-entered) must not produce
   duplicate keys in downstream JSON. *)
let add_timing timings phase ms =
  let rec add acc = function
    | [] -> List.rev ((phase, ms) :: acc)
    | (p, total) :: rest when String.equal p phase ->
        List.rev_append acc ((p, total +. ms) :: rest)
    | entry :: rest -> add (entry :: acc) rest
  in
  add [] timings

type parses = { src_ast : Psast.Ast.t option; out_ast : Psast.Ast.t option }

(** Totalised pipeline: every phase runs under {!Pscommon.Guard.protect}
    with one wall-clock deadline for the whole run.  A phase that crashes,
    overruns, or over-produces degrades to the best text the earlier phases
    produced, and the failure is recorded — the run itself always returns.
    Also returns the parses of the input and of the output that the run
    made anyway, for the verify gate's sandbox runs. *)
let run_guarded_parsed ?(options = default_options) ?(timeout_s = 60.0)
    ?(max_output_bytes = 32 * 1024 * 1024) ?cache ?(suppress = []) src =
  let module Guard = Pscommon.Guard in
  let module T = Pscommon.Telemetry in
  let deadline = Guard.deadline_after timeout_s in
  let stats = Recover.new_stats () in
  (* a caller-owned cache (the serve daemon's per-worker cache) persists
     across runs; the default is private to this run *)
  let cache =
    match cache with Some c -> c | None -> Recover.Cache.create ()
  in
  let log = Editlog.create () in
  let run_sid =
    if T.active () then
      T.span_begin "engine.run" ~attrs:[ ("bytes", T.I (String.length src)) ]
    else 0
  in
  let failures = ref [] in
  let record phase failure =
    failures := { phase; failure } :: !failures;
    T.Metrics.incr
      (T.Metrics.counter
         (Printf.sprintf "engine.failures.%s.%s" phase
            (Guard.failure_label failure)));
    if T.active () then
      T.event "engine.failure"
        ~attrs:
          [ ("phase", T.S phase);
            ("kind", T.S (Guard.failure_label failure)) ]
  in
  let timings = ref [] in
  let timed phase f =
    let module T = Pscommon.Telemetry in
    let sid =
      if T.active () then
        T.span_begin "engine.phase" ~attrs:[ ("phase", T.S phase) ]
      else 0
    in
    let t0 = Guard.now () in
    let r = f () in
    let ms = (Guard.now () -. t0) *. 1000.0 in
    if sid <> 0 then T.span_end sid ~attrs:[ ("ms", T.F ms) ];
    T.Metrics.observe (T.Metrics.histogram ("engine.phase_ms." ^ phase)) ms;
    timings := add_timing !timings phase ms;
    r
  in
  let regions_total = ref 0 in
  let regions_recovered = ref 0 in
  let src_ast = ref None in
  let finish ?out_ast output iterations =
    let changed = not (String.equal output src) in
    if run_sid <> 0 then
      T.span_end run_sid
        ~attrs:
          [ ("iterations", T.I iterations);
            ("changed", T.B changed);
            ("bytes_out", T.I (String.length output)) ];
    ( { result = { output; stats; iterations; changed };
        failures = List.rev !failures;
        timings = !timings;
        regions_total = !regions_total;
        regions_recovered = !regions_recovered;
        edit_log = Editlog.stages log },
      { src_ast = !src_ast; out_ast } )
  in
  let finish_parsed (p : Parser.parsed) iterations =
    finish ~out_ast:p.Parser.ast p.Parser.text iterations
  in
  (* Partial-parse recovery: the whole file failed to parse, so segment it
     into maximal parseable regions at statement-boundary sync points and
     run each region through the normal fixpoint on its own, reassembling
     with the opaque / binary fragments passed through verbatim.  Renaming
     is disabled for regions — an opaque fragment may reference variables a
     parseable region defines by their original names, and renaming only
     the visible half would desynchronise them (the residual-encoded
     reasoning, applied across regions). *)
  let recover_regions () =
    let segments =
      match
        timed "segment" (fun () ->
            Guard.protect ~deadline (fun () -> Psparse.Segment.segment src))
      with
      | Ok segs -> segs
      | Error failure ->
          record "segment" failure;
          []
    in
    regions_total := List.length segments;
    T.Metrics.incr ~by:!regions_total (T.Metrics.counter "engine.regions.total");
    if
      not
        (List.exists (fun r -> r.Psparse.Segment.kind = Psparse.Segment.Parseable) segments)
    then
      (* nothing recoverable: pass through, but still report how many
         segments the scanner saw *)
      finish src 0
    else begin
      let ropts = { options with rename = false } in
      let buf = Buffer.create (String.length src) in
      let iters = ref 0 in
      let timed_out = ref false in
      List.iter
        (fun (r : Psparse.Segment.region) ->
          let text = String.sub src r.Psparse.Segment.start
              (r.Psparse.Segment.stop - r.Psparse.Segment.start)
          in
          match r.Psparse.Segment.kind with
          | Psparse.Segment.Opaque | Psparse.Segment.Binary ->
              Buffer.add_string buf text
          | Psparse.Segment.Parseable when Guard.expired deadline ->
              (* out of budget: pass the rest through, one Timeout recorded
                 below instead of one per remaining region *)
              timed_out := true;
              Buffer.add_string buf text
          | Psparse.Segment.Parseable -> (
              let sid =
                if T.active () then
                  T.span_begin "engine.region"
                    ~attrs:
                      [ ("start", T.I r.Psparse.Segment.start);
                        ("bytes", T.I (String.length text)) ]
                else 0
              in
              match
                timed "region" (fun () ->
                    Guard.protect ~deadline ~max_output_bytes
                      ~measure:(fun (s, _) -> String.length s)
                      (fun () ->
                        let recovered, it =
                          deobfuscate_at ~opts:ropts ~stats ~cache ~depth:0 text
                        in
                        (finalize ~options:ropts recovered, it)))
              with
              | Ok (out, it) ->
                  incr regions_recovered;
                  iters := !iters + it;
                  (* keep the statement boundary: a region that ended on a
                     newline must not fuse with the next fragment *)
                  let out =
                    if
                      String.length text > 0
                      && text.[String.length text - 1] = '\n'
                      && (String.length out = 0
                         || out.[String.length out - 1] <> '\n')
                    then out ^ "\n"
                    else out
                  in
                  if sid <> 0 then
                    T.span_end sid
                      ~attrs:[ ("changed", T.B (not (String.equal out text))) ];
                  Buffer.add_string buf out
              | Error failure ->
                  record "region" failure;
                  if sid <> 0 then
                    T.span_end sid
                      ~attrs:[ ("failed", T.S (Guard.failure_label failure)) ];
                  Buffer.add_string buf text))
        segments;
      if !timed_out && not (List.exists (fun s -> s.failure = Guard.Timeout) !failures)
      then record "region" Guard.Timeout;
      T.Metrics.incr ~by:!regions_recovered
        (T.Metrics.counter "engine.regions.recovered");
      finish (Buffer.contents buf) !iters
    end
  in
  match
    timed "parse" (fun () ->
        Guard.protect ~deadline (fun () -> Parser.parse_full src))
  with
  | Ok (Error _) ->
      record "parse" Guard.Parse_failure;
      if options.partial then recover_regions () else finish src 0
  | Error failure ->
      record "parse" failure;
      if options.partial then recover_regions () else finish src 0
  | Ok (Ok parsed) ->
      src_ast := Some parsed.Parser.ast;
      let measure ((p : Parser.parsed), _) = String.length p.Parser.text in
      let recovered, iterations =
        match
          timed "recovery" (fun () ->
              Guard.protect ~deadline ~max_output_bytes ~measure (fun () ->
                  deobfuscate_parsed ~opts:options ~stats ~cache ~depth:0 ~log
                    ~suppress parsed))
        with
        | Ok r -> r
        | Error failure ->
            record "recovery" failure;
            (parsed, 0)
      in
      (* dynamic recovery: provenance-guided replacement of the loop/
         conditional regions the static fixpoint cannot fold.  Runs under
         its own guarded phase, so a fault (including one injected at the
         recover.dynamic chaos site) degrades to the static result; a
         successful substitution opens new static folds, so the fixpoint
         runs once more over the patched text. *)
      let recovered, iterations =
        if (not options.recovery.use_dynamic) || Guard.expired deadline then
          (recovered, iterations)
        else
          match
            timed "dynamic" (fun () ->
                Guard.protect ~deadline ~max_output_bytes ~measure (fun () ->
                    match
                      Recover.run_dynamic_parsed ~opts:options.recovery ~stats
                        ~cache ~ast:recovered.Parser.ast ~log ~pass:iterations
                        ~suppress recovered.Parser.text
                    with
                    | None -> (recovered, iterations)
                    | Some patched ->
                        let out, extra =
                          fixpoint_parsed ~opts:options ~stats ~cache ~depth:0
                            ~log ~suppress patched
                        in
                        (out, iterations + extra)))
          with
          | Ok r -> r
          | Error failure ->
              record "dynamic" failure;
              (recovered, iterations)
      in
      if Guard.expired deadline then begin
        (* the fixpoint loop stopped itself on the deadline: partial
           recovery is kept, later phases are skipped *)
        if not (List.exists (fun s -> s.failure = Guard.Timeout) !failures)
        then record "recovery" Guard.Timeout;
        finish_parsed recovered iterations
      end
      else begin
        (* a finalize pseudo-suppression (semantic gate attributing the
           divergence to rename/reformat) rolls back the whole phase; the
           quarantine breaker for "engine.finalize" skips it up front *)
        let options =
          if
            Editlog.finalize_suppressed suppress
            || not (Quarantine.admits ~phase:"engine" ~kind:"finalize")
          then { options with rename = false; reformat = false }
          else options
        in
        let measure (p : Parser.parsed) = String.length p.Parser.text in
        (* each step hands on the parse it validated its output with *)
        let step phase ~enabled ~rule input f =
          if not enabled then input
          else
            match
              timed phase (fun () ->
                  Guard.protect ~deadline ~max_output_bytes ~measure (fun () ->
                      f input))
            with
            | Ok (p : Parser.parsed) ->
                if not (String.equal p.Parser.text input.Parser.text) then
                  T.Metrics.incr (T.Metrics.counter rule);
                p
            | Error failure ->
                record phase failure;
                input
        in
        let renamed =
          step "rename" ~enabled:options.rename ~rule:"engine.rule.rename"
            recovered (fun p ->
              if residual_encoded_parsed p then p else Rename.rename_parsed p)
        in
        let formatted =
          step "reformat" ~enabled:options.reformat
            ~rule:"engine.rule.reformat" renamed Rename.reformat_parsed
        in
        (* the syntax check of the finished text is the parse reformat (or
           the last stage before it) validated it with; the phase keeps its
           guard, so its deadline and fault site behave as before *)
        let output =
          match timed "check" (fun () -> Guard.protect ~deadline Fun.id) with
          | Ok () -> formatted
          | Error _ -> recovered
        in
        finish_parsed output iterations
      end

let run_guarded ?options ?timeout_s ?max_output_bytes ?cache ?suppress src =
  fst
    (run_guarded_parsed ?options ?timeout_s ?max_output_bytes ?cache ?suppress
       src)

(** Deobfuscate a script.  Never raises: scripts that fail to lex or parse
    are returned unchanged with [changed = false]. *)
let run ?(options = default_options) src =
  (run_guarded ~options ~timeout_s:infinity ~max_output_bytes:max_int src).result

(** Convenience: deobfuscate and report score reduction. *)
let run_with_scores ?options src =
  let before = Score.score src in
  let result = run ?options src in
  let after = Score.score result.output in
  (result, before, after)

type phase_output = { phase : string; text : string }

(** The staged view of the pipeline (paper Fig 7): the script after token
    parsing, after variable tracing and recovery, and after renaming and
    reformatting. *)
let run_phases ?(options = default_options) src =
  match Parser.parse_full src with
  | Error _ -> [ { phase = "original"; text = src } ]
  | Ok parsed ->
      (* each stage is computed exactly once: the fixpoint continues from
         the token-parsed text, and the final stage finalizes the recovered
         text *)
      let stats = Recover.new_stats () in
      let cache = Recover.Cache.create () in
      let after_tokens =
        if options.token_phase then
          Option.value ~default:parsed
            (Token_phase.run_parsed ~toks:parsed.Parser.tokens src)
        else parsed
      in
      let recovered, _ =
        fixpoint_parsed ~opts:options ~stats ~cache ~depth:0 after_tokens
      in
      let final = finalize_parsed ~options recovered in
      [
        { phase = "original"; text = src };
        { phase = "token parsing"; text = after_tokens.Parser.text };
        { phase = "variable tracing and recovery"; text = recovered.Parser.text };
        { phase = "renaming and reformatting"; text = final.Parser.text };
      ]
