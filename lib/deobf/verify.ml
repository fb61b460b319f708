(** Semantic-equivalence gate: differential effect-log verification with
    edit-log bisection rollback.  See the interface for the contract. *)

module Guard = Pscommon.Guard
module Chaos = Pscommon.Chaos
module T = Pscommon.Telemetry

type verdict =
  | Equivalent
  | Rolled_back of int
  | Diverged
  | Unverifiable of string

let verdict_name = function
  | Equivalent -> "equivalent"
  | Rolled_back _ -> "rolled_back"
  | Diverged -> "diverged"
  | Unverifiable _ -> "unverifiable"

let verdict_detail = function
  | Equivalent | Diverged -> None
  | Rolled_back n -> Some (Printf.sprintf "%d edit(s) rolled back" n)
  | Unverifiable reason -> Some reason

(* rollback attempts before giving up as [Diverged] *)
let max_rounds = 4

type outcome = {
  verdict : verdict;
  sandbox_runs : int;
  suppressed : Editlog.suppression list;
  rolled_rules : string list;
  dynamic_rolled_back : int;
  verify_ms : float;
}

(* dynamic-recovery edits carry rule keys recover.dynamic.* — counted
   separately so the telemetry plane can tell an aggressive dynamic rule
   from a static one *)
let is_dynamic_rule rule =
  String.length rule >= 16 && String.sub rule 0 16 = "recover.dynamic."

(* A sandbox run the ambient (request) deadline contained.  Before any
   divergence is found the gate stops there, unverifiable, rather than read
   the cut-short run as one; after, it stops as if out of rounds. *)
exception Out_of_time

let out_of_time () = Guard.expired (Guard.ambient_deadline ())

(* Every sandbox run of one gate, whatever script it executes, gets the
   step budget of the original ([max_steps]), so both sides of an
   effect-log comparison run under one budget. *)
let run_log ~max_steps ~runs ?ast ?payloads text =
  incr runs;
  match Sandbox.run_for_verify ~max_steps ?ast ?payloads text with
  | Error _ when out_of_time () -> raise Out_of_time
  | log -> log

(* the gate's own metrics, registered by its first verdict *)
let m_gate = T.Metrics.counter_family "verify."
let m_gate_ms = T.Metrics.histogram_family "verify."

(* The {e original} script's sandbox run.  A service sees the same script
   again and again, and a repeated batch re-verifies the same inputs, but
   the reference log is a pure function of the text (its step budget is
   one too): with a cache, the log comes from its reference tier, keyed on
   the content digest.  A hit performs no sandbox execution, so [runs]
   stays put — sandbox_runs counts executions, not answers. *)
let ref_log ?cache ~max_steps ~runs ~ast ?payloads src =
  let run () = run_log ~max_steps ~runs ~ast ?payloads src in
  match cache with
  | None -> run ()
  | Some cache ->
      Recover.Cache.reference cache (Digest.to_hex (Digest.string src)) run

(* The chaos probe sits inside the comparison itself, so an injected fault
   surfaces as a (spurious) divergence and drives the rollback machinery —
   never an escaped exception.  "verify.diff" is the site name in the
   --chaos grammar. *)
let logs_equal a b =
  match
    Chaos.probe "verify.diff";
    List.equal String.equal a b
  with
  | equal -> equal
  | exception _ -> false

(* Prefix 0 is the original text itself — equivalent by definition and
   never re-evaluated, so an injected diff fault cannot flip the bisection
   anchor.  A prefix whose sandbox run is contained, or that no longer
   parses, counts as divergent. *)
let prefix_equivalent ~max_steps ~runs ~orig_log ~src stages n =
  match Editlog.replay_prefix ~src stages n with
  | text -> (
      match run_log ~max_steps ~runs text with
      | Error _ -> false
      | Ok log -> logs_equal orig_log log)
  | exception _ -> false

(* Find one offending rewrite to suppress: binary-search the flattened
   journal for the first edit whose prefix diverges (invariant: lo
   equivalent, hi divergent).  When every journaled edit checks out — or
   there is nothing journaled at all — the remaining rewrite is
   finalization (rename + reformat), which is not an extent edit and gets
   the pseudo-suppression. *)
(* Returns the suppression plus the attribution name of the rolled-back
   rule ([phase ^ "." ^ kind], or ["engine.finalize"] for the
   pseudo-suppression) — the identity {!Quarantine} keys its breakers on. *)
let culprit ~max_steps ~runs ~orig_log ~src (guarded : Engine.guarded) =
  let stages = guarded.Engine.edit_log in
  let flat = Editlog.flatten stages in
  let total = Array.length flat in
  if total = 0 || prefix_equivalent ~max_steps ~runs ~orig_log ~src stages total
  then (Editlog.suppress_finalize, "engine.finalize")
  else begin
    let lo = ref 0 and hi = ref total in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if prefix_equivalent ~max_steps ~runs ~orig_log ~src stages mid then
        lo := mid
      else hi := mid
    done;
    let e = flat.(!hi - 1) in
    (Editlog.suppress_edit e, e.Editlog.phase ^ "." ^ e.Editlog.kind)
  end

let gate ?cache ?src_ast ?out_ast ?payloads ~rerun ~src
    (guarded : Engine.guarded) =
  T.span "verify.gate" @@ fun () ->
  let started = Guard.now () in
  let max_steps = Pseval.Env.step_budget ~bytes:(String.length src) in
  let runs = ref 0 in
  let finish guarded verdict suppressed rolled_rules =
    let verify_ms = (Guard.now () -. started) *. 1000.0 in
    let dynamic_rolled_back =
      List.length (List.filter is_dynamic_rule rolled_rules)
    in
    T.Metrics.incr (T.Metrics.member m_gate (verdict_name verdict));
    T.Metrics.incr ~by:!runs (T.Metrics.member m_gate "sandbox_runs");
    T.Metrics.incr ~by:dynamic_rolled_back
      (T.Metrics.member m_gate "dynamic_rolled_back");
    T.Metrics.observe (T.Metrics.member m_gate_ms "ms") verify_ms;
    if T.active () then
      T.event "verify.verdict"
        ~attrs:
          [ ("verdict", T.S (verdict_name verdict));
            ("sandbox_runs", T.I !runs);
            ("rolled_back", T.I (List.length suppressed));
            ("ms", T.F verify_ms) ];
    (guarded,
     { verdict; sandbox_runs = !runs; suppressed; rolled_rules;
       dynamic_rolled_back; verify_ms })
  in
  if String.equal guarded.Engine.result.Engine.output src then
    (* unchanged output is trivially equivalent; skip the sandbox *)
    finish guarded Equivalent [] []
  else
    match
      match src_ast with Some ast -> Ok ast | None -> Psparse.Parser.parse src
    with
    | Error _ ->
        (* covers the partial-parse (region) path too, whose edits are not
           journaled and could not be bisected *)
        finish guarded (Unverifiable "original does not parse") [] []
    | Ok src_ast -> (
        match ref_log ?cache ~max_steps ~runs ~ast:src_ast ?payloads src with
        | exception Out_of_time ->
            finish guarded (Unverifiable "request deadline") [] []
        | Error reason ->
            finish guarded (Unverifiable ("original: " ^ reason)) [] []
        | Ok orig_log ->
            (* [out_ast] is the parse of [guarded]'s output; a rollback
               re-run's output comes without one *)
            let rec round guarded out_ast suppressed rolled_rules rounds_left =
              (* a divergence is confirmed: running out of time from here
                 on ends the gate as running out of rounds does *)
              let diverged () =
                if rounds_left = 0 then
                  finish guarded Diverged suppressed rolled_rules
                else
                  match culprit ~max_steps ~runs ~orig_log ~src guarded with
                  | exception Out_of_time ->
                      finish guarded Diverged suppressed rolled_rules
                  | sup, _ when List.mem sup suppressed || out_of_time () ->
                      (* the suppression did not remove the divergence (or
                         chaos keeps forcing one): stop rather than loop;
                         past the deadline, a re-run could not finish *)
                      finish guarded Diverged suppressed rolled_rules
                  | sup, rule ->
                      if T.active () then
                        T.event "verify.rollback"
                          ~attrs:[ ("edit", T.S (Editlog.describe sup)) ];
                      let suppressed = sup :: suppressed in
                      let rolled_rules =
                        if List.mem rule rolled_rules then rolled_rules
                        else rule :: rolled_rules
                      in
                      round (rerun ~suppress:suppressed) None suppressed
                        rolled_rules (rounds_left - 1)
              in
              match
                (* an output equal to the input (everything rolled back) is
                   trivially equivalent — decided without the sandbox or
                   the (possibly fault-injected) differ *)
                String.equal guarded.Engine.result.Engine.output src
                ||
                match
                  run_log ~max_steps ~runs ?ast:out_ast
                    guarded.Engine.result.Engine.output
                with
                | Ok out_log -> logs_equal orig_log out_log
                | Error _ -> false
              with
              | exception Out_of_time when suppressed = [] ->
                  finish guarded (Unverifiable "request deadline") [] []
              | exception Out_of_time ->
                  finish guarded Diverged suppressed rolled_rules
              | true when suppressed = [] -> finish guarded Equivalent [] []
              | true ->
                  finish guarded
                    (Rolled_back (List.length suppressed))
                    suppressed rolled_rules
              | false -> diverged ()
            in
            round guarded out_ast [] [] max_rounds)

let run_guarded ?options ?cache ?(timeout_s = infinity) ?max_output_bytes src =
  Guard.within (Guard.deadline_after timeout_s) @@ fun () ->
  let cache =
    match cache with Some c -> c | None -> Recover.Cache.create ()
  in
  let payloads = Hashtbl.create 8 in
  let guarded, parses =
    Engine.run_guarded_parsed ?options ~cache ~timeout_s ?max_output_bytes
      ~payloads src
  in
  (* the re-runs repeat the same run with the same piece cache, so
     replayed pieces stay byte-identical *)
  let rerun ~suppress =
    Engine.run_guarded ?options ~cache ~timeout_s ?max_output_bytes ~suppress
      src
  in
  gate ~cache ?src_ast:parses.Engine.src_ast
    ?out_ast:parses.Engine.out_ast ~payloads ~rerun ~src guarded
