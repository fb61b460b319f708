(** The stage replay behind the traced run.

    It drives the same public functions, in the same order, that
    [Deobf.Engine.run_guarded] calls with default options on a parseable
    input, and finishes each sample with [Deobf.Verify.gate] as
    [Deobf.Batch.run_source ~verify:true] does.  Each call is wrapped in a
    {!Pscommon.Telemetry} span named after its layer.  The program's own
    [recover.piece], [interp.invoke_piece] and [verify.gate] spans nest
    inside them.  Spans are recorded from the benchmark's files rather than
    from inside the program, so the untraced end-to-end numbers measure the
    program as shipped.  A layer's self time is its spans' duration minus
    the part their child spans cover. *)

module T = Pscommon.Telemetry
module Guard = Pscommon.Guard
module E = Deobf.Engine

(* the budgets Batch.process_file and Engine.run_guarded apply by default *)
let timeout_s = 30.0
let max_output_bytes = 32 * 1024 * 1024

(* Copied from the private [residual_dynamic_iex] and [residual_encoded] of
   lib/deobf/engine.ml: renaming is skipped when an encoded payload or a
   dynamic Invoke-Expression survived recovery.  Keep in step with the
   engine; a drift shows up as [trace.replay_mismatch]. *)
let residual_dynamic_iex src =
  match Psparse.Parser.parse src with
  | Error _ -> true
  | Ok ast ->
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
                          List.exists
                            (fun v -> not (Deobf.Tracer.is_automatic v))
                            (Deobf.Tracer.variables_read a)
                      | _ -> false)
                    cmd.A.cmd_elements
                in
                if risky_arg then found := true)
          | _ -> ())
        ast;
      !found

let residual_encoded recovered =
  (match Pslex.Lexer.tokenize recovered with
  | Error _ -> true
  | Ok toks ->
      List.exists
        (fun t ->
          t.Pslex.Token.kind = Pslex.Token.Command_parameter
          && String.length t.Pslex.Token.content > 1
          && Char.lowercase_ascii t.Pslex.Token.content.[1] = 'e')
        toks)
  || residual_dynamic_iex recovered

(* What the spans do not carry: totals over the run, and the texts handed
   to [run_pass] for the current sample, which the caller clears. *)
type counts = {
  mutable layers : int;  (** recursive entries for unwrapped layers *)
  mutable passes : int;  (** Recover.run_pass calls *)
  mutable pass_inputs : string list;  (** texts handed to run_pass *)
}

let new_counts () = { layers = 0; passes = 0; pass_inputs = [] }

let or_keep current ast = function
  | Some (patched, patched_ast) -> (patched, patched_ast, true)
  | None -> (current, ast, false)

let rec deobfuscate_at c ~opts ~stats ~cache ~depth ?log ~suppress src =
  let src1 =
    if opts.E.token_phase then
      T.span "token_phase" (fun () ->
          Deobf.Token_phase.run ?log ~pass:(-1) ~suppress src)
    else src
  in
  fixpoint_from c ~opts ~stats ~cache ~depth ?log ~suppress src1

and fixpoint_from c ~opts ~stats ~cache ~depth ?log ~suppress src1 =
  let deobfuscate ~depth payload =
    c.layers <- c.layers + 1;
    fst (deobfuscate_at c ~opts ~stats ~cache ~depth ~suppress payload)
  in
  let rec fixpoint i current ast simplify_pending =
    if i >= opts.E.max_iterations then (current, i)
    else if Guard.expired (Guard.ambient_deadline ()) then (current, i)
    else begin
      c.passes <- c.passes + 1;
      c.pass_inputs <- current :: c.pass_inputs;
      let cur1, ast1, recover_changed =
        or_keep current ast
          (T.span "recover.pass" (fun () ->
               Deobf.Recover.run_pass ~opts:opts.E.recovery ~stats ~cache
                 ~deobfuscate ~depth ?log ~pass:i ~suppress ~ast current))
      in
      let cur2, ast2, token_changed =
        or_keep cur1 ast1
          (if opts.E.token_phase then
             T.span "token_phase" (fun () ->
                 Deobf.Token_phase.run_shared ?log ~pass:i ~suppress cur1)
           else None)
      in
      if not (recover_changed || token_changed || simplify_pending) then
        (current, i + 1)
      else
        let cur3, ast3, simplify_changed =
          or_keep cur2 ast2
            (T.span "simplify" (fun () ->
                 Deobf.Simplify.run_shared ?log ~pass:i ~suppress ~ast:ast2 cur2))
        in
        if String.equal cur3 current then (current, i + 1)
        else fixpoint (i + 1) cur3 ast3 simplify_changed
    end
  in
  match T.span "psparse" (fun () -> Psparse.Parser.parse src1) with
  | Error _ ->
      if
        opts.E.max_iterations <= 0
        || Guard.expired (Guard.ambient_deadline ())
      then (src1, 0)
      else (src1, 1)
  | Ok ast -> fixpoint 0 src1 ast true

(* Engine.run_guarded with default options.  An input that does not parse
   takes the engine's partial-parse path, which is run whole as one layer. *)
let run_pipeline c ~cache ~suppress src =
  let options = E.default_options in
  let deadline = Guard.deadline_after timeout_s in
  let stats = Deobf.Recover.new_stats () in
  let log = Deobf.Editlog.create () in
  let failures = ref [] in
  let record phase failure = failures := { E.phase; failure } :: !failures in
  let finish output iterations =
    { E.result =
        { E.output; stats; iterations; changed = not (String.equal output src) };
      failures = List.rev !failures; timings = []; regions_total = 0;
      regions_recovered = 0; edit_log = Deobf.Editlog.stages log }
  in
  let measure (s, _) = String.length s in
  match
    T.span "psparse" (fun () ->
        Guard.protect ~deadline (fun () -> Psparse.Parser.is_valid_syntax src))
  with
  | Ok false | Error _ ->
      T.span "engine.partial" (fun () ->
          E.run_guarded ~options ~timeout_s ~cache ~suppress src)
  | Ok true ->
      let recovered, iterations =
        match
          Guard.protect ~deadline ~max_output_bytes ~measure (fun () ->
              deobfuscate_at c ~opts:options ~stats ~cache ~depth:0 ~log
                ~suppress src)
        with
        | Ok r -> r
        | Error failure ->
            record "recovery" failure;
            (src, 0)
      in
      let recovered, iterations =
        if
          (not options.E.recovery.E.use_dynamic) || Guard.expired deadline
        then (recovered, iterations)
        else
          match
            Guard.protect ~deadline ~max_output_bytes ~measure (fun () ->
                match
                  T.span "dynamic" (fun () ->
                      Deobf.Recover.run_dynamic ~opts:options.E.recovery ~stats
                        ~log ~pass:iterations ~suppress recovered)
                with
                | None -> (recovered, iterations)
                | Some (patched, _) ->
                    let out, extra =
                      fixpoint_from c ~opts:options ~stats ~cache ~depth:0 ~log
                        ~suppress patched
                    in
                    (out, iterations + extra))
          with
          | Ok r -> r
          | Error failure ->
              record "dynamic" failure;
              (recovered, iterations)
      in
      if Guard.expired deadline then begin
        if not (List.exists (fun s -> s.E.failure = Guard.Timeout) !failures)
        then record "recovery" Guard.Timeout;
        finish recovered iterations
      end
      else begin
        let finalize =
          not
            (Deobf.Editlog.finalize_suppressed suppress
            || not (Deobf.Quarantine.admits ~phase:"engine" ~kind:"finalize"))
        in
        let guarded name text f =
          match
            T.span name (fun () ->
                Guard.protect ~deadline ~max_output_bytes ~measure:String.length f)
          with
          | Ok s -> s
          | Error failure ->
              record name failure;
              text
        in
        let renamed =
          if not (finalize && options.E.rename) then recovered
          else
            guarded "rename" recovered (fun () ->
                if residual_encoded recovered then recovered
                else Deobf.Rename.rename recovered)
        in
        let formatted =
          if not (finalize && options.E.reformat) then renamed
          else guarded "reformat" renamed (fun () -> Deobf.Rename.reformat renamed)
        in
        let output =
          match
            T.span "psparse" (fun () ->
                Guard.protect ~deadline (fun () ->
                    Psparse.Parser.is_valid_syntax formatted))
          with
          | Ok true -> formatted
          | Ok false | Error _ -> recovered
        in
        finish output iterations
      end

type sample = {
  output : string;
  main : Deobf.Recover.stats;  (** the first pipeline run's, not the reruns' *)
  verify : Deobf.Verify.outcome option;
}

(* Batch.run_source ~verify:true at full strength.  A run that degraded
   would walk the batch retry ladder, which the replay does not stage: that
   sample is handed to the batch core whole, as one named layer. *)
let process c ~cache src =
  Deobf.Quarantine.begin_request ();
  let guarded = run_pipeline c ~cache ~suppress:[] src in
  let retryable =
    List.exists
      (fun (s : E.failure_site) -> s.E.failure <> Guard.Parse_failure)
      guarded.E.failures
  in
  if retryable then begin
    Deobf.Quarantine.abort_request ();
    let outcome, output =
      T.span "engine.ladder" (fun () ->
          Deobf.Batch.run_source ~cache ~verify:true ~name:"replay" src)
    in
    { output; main = outcome.Deobf.Batch.stats; verify = None }
  end
  else begin
    let rerun ~suppress =
      T.span "verify.rerun" (fun () -> run_pipeline c ~cache ~suppress src)
    in
    let g, o = T.span "verify" (fun () -> Deobf.Verify.gate ~rerun ~src guarded) in
    Deobf.Quarantine.end_request ~rolled_rules:o.Deobf.Verify.rolled_rules;
    { output = g.E.result.E.output; main = guarded.E.result.E.stats;
      verify = Some o }
  end

(* ---------- span accounting ---------- *)

(* the metric each span's self time lands in; spans of the engine's own
   fallback paths count as attributed but belong to no layer metric *)
let layer_of_span = function
  | "sample" -> "residual"
  | "psparse" -> "psparse.ms"
  | "token_phase" -> "token_phase.ms"
  | "recover.pass" -> "recover.pass_ms"
  | "recover.piece" -> "recover.lookup_ms"
  | "interp.invoke_piece" -> "pseval.eval_ms"
  | "simplify" -> "simplify.ms"
  | "dynamic" -> "dynamic.ms"
  | "rename" -> "rename.ms"
  | "reformat" -> "reformat.ms"
  | "verify" | "verify.gate" | "verify.rerun" -> "verify.ms"
  | _ -> "other"

type totals = {
  self_ms : (string, float) Hashtbl.t;  (** layer -> summed self time *)
  mutable sample_ms : float;  (** summed root-span durations *)
  mutable evals : int;  (** interp.invoke_piece spans: piece-cache misses *)
}

let new_totals () =
  { self_ms = Hashtbl.create 16; sample_ms = 0.0; evals = 0 }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* add [t]'s times, multiplied by [scale], and its counts to [into] *)
let merge ~into ~scale t =
  Hashtbl.iter (fun k v -> add into.self_ms k (v *. scale)) t.self_ms;
  into.sample_ms <- into.sample_ms +. (t.sample_ms *. scale);
  into.evals <- into.evals + t.evals

let account totals events =
  let open_spans = Hashtbl.create 64 in
  List.iter
    (fun (e : T.event) ->
      match e.T.kind with
      | T.Span_begin -> Hashtbl.replace open_spans e.T.id (e.T.t_ms, ref 0.0)
      | T.Span_end -> (
          match Hashtbl.find_opt open_spans e.T.id with
          | None -> ()
          | Some (t0, children) ->
              Hashtbl.remove open_spans e.T.id;
              let dur = e.T.t_ms -. t0 in
              add totals.self_ms (layer_of_span e.T.name) (dur -. !children);
              (match e.T.name with
              | "sample" -> totals.sample_ms <- totals.sample_ms +. dur
              | "interp.invoke_piece" -> totals.evals <- totals.evals + 1
              | _ -> ());
              Option.iter
                (fun (_, pc) -> pc := !pc +. dur)
                (Hashtbl.find_opt open_spans e.T.parent))
      | T.Point -> ())
    events
