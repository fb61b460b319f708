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

type opts = {
  max_steps : int;
  timeout_s : float;
  max_rounds : int;
  use_ref_cache : bool;
}

let default_opts =
  { max_steps = 400_000; timeout_s = 5.0; max_rounds = 4;
    use_ref_cache = true }

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

let run_log ~opts ~runs ?ast text =
  incr runs;
  Sandbox.run_for_verify ~max_steps:opts.max_steps ~timeout_s:opts.timeout_s
    ?ast text

(* Reference-log memo for the {e original} script's sandbox run.  The gate
   re-verifies the same input whenever the ladder re-runs a rung, and a
   service sees the same script again and again — but the reference log is
   a pure function of (text, sandbox limits), so it is cached keyed on the
   content digest plus those limits.  Only [Ok] logs are stored: a
   containment error (timeout, step limit hit mid-wall-clock) depends on
   the moment of execution and must not be replayed.  Bounded with
   whole-table reset on overflow, mutex-protected (serve workers share
   it process-wide). *)
let ref_cache : (string, string list) Hashtbl.t = Hashtbl.create 64
let ref_cache_lock = Mutex.create ()
let ref_cache_cap = 512
let m_ref_hits = T.Metrics.counter "verify.ref_cache_hits"

let ref_log ~opts ~runs ~ast src =
  if not opts.use_ref_cache then run_log ~opts ~runs ~ast src
  else begin
    let key =
      Printf.sprintf "%s:%d:%h"
        (Digest.to_hex (Digest.string src))
        opts.max_steps opts.timeout_s
    in
    Mutex.lock ref_cache_lock;
    let cached = Hashtbl.find_opt ref_cache key in
    Mutex.unlock ref_cache_lock;
    match cached with
    | Some log ->
        (* a hit performs no sandbox execution, so [runs] stays put —
           sandbox_runs counts executions, not answers *)
        T.Metrics.incr m_ref_hits;
        Ok log
    | None -> (
        match run_log ~opts ~runs ~ast src with
        | Ok log as ok ->
            Mutex.lock ref_cache_lock;
            if Hashtbl.length ref_cache >= ref_cache_cap then
              Hashtbl.reset ref_cache;
            Hashtbl.replace ref_cache key log;
            Mutex.unlock ref_cache_lock;
            ok
        | Error _ as e -> e)
  end

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
let prefix_equivalent ~opts ~runs ~orig_log ~src stages n =
  match Editlog.replay_prefix ~src stages n with
  | text -> (
      match run_log ~opts ~runs text with
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
let culprit ~opts ~runs ~orig_log ~src (guarded : Engine.guarded) =
  let stages = guarded.Engine.edit_log in
  let flat = Editlog.flatten stages in
  let total = Array.length flat in
  if total = 0 || prefix_equivalent ~opts ~runs ~orig_log ~src stages total
  then (Editlog.suppress_finalize, "engine.finalize")
  else begin
    let lo = ref 0 and hi = ref total in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if prefix_equivalent ~opts ~runs ~orig_log ~src stages mid then lo := mid
      else hi := mid
    done;
    let e = flat.(!hi - 1) in
    (Editlog.suppress_edit e, e.Editlog.phase ^ "." ^ e.Editlog.kind)
  end

let gate ?(opts = default_opts) ?src_ast ?out_ast ~rerun ~src
    (guarded : Engine.guarded) =
  T.span "verify.gate" @@ fun () ->
  let started = Guard.now () in
  let runs = ref 0 in
  let finish guarded verdict suppressed rolled_rules =
    let verify_ms = (Guard.now () -. started) *. 1000.0 in
    let dynamic_rolled_back =
      List.length (List.filter is_dynamic_rule rolled_rules)
    in
    T.Metrics.incr (T.Metrics.counter ("verify." ^ verdict_name verdict));
    T.Metrics.incr ~by:!runs (T.Metrics.counter "verify.sandbox_runs");
    T.Metrics.incr ~by:dynamic_rolled_back
      (T.Metrics.counter "verify.dynamic_rolled_back");
    T.Metrics.observe (T.Metrics.histogram "verify.ms") verify_ms;
    if T.active () then
      T.event "verify.verdict"
        ~attrs:
          [ ("verdict", T.S (verdict_name verdict));
            ("sandbox_runs", T.I !runs);
            ("rolled_back", T.I (List.length suppressed)) ];
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
        match ref_log ~opts ~runs ~ast:src_ast src with
        | Error reason ->
            finish guarded (Unverifiable ("original: " ^ reason)) [] []
        | Ok orig_log ->
            (* [out_ast] is the parse of [guarded]'s output; a rollback
               re-run's output comes without one *)
            let rec round guarded out_ast suppressed rolled_rules rounds_left =
              let diverged () =
                if rounds_left = 0 then
                  finish guarded Diverged suppressed rolled_rules
                else
                  let sup, rule = culprit ~opts ~runs ~orig_log ~src guarded in
                  if List.mem sup suppressed then
                    (* the suppression did not remove the divergence (or
                       chaos keeps forcing one): stop rather than loop *)
                    finish guarded Diverged suppressed rolled_rules
                  else begin
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
                  end
              in
              let equal_now =
                (* an output equal to the input (everything rolled back) is
                   trivially equivalent — decided without the sandbox or
                   the (possibly fault-injected) differ *)
                String.equal guarded.Engine.result.Engine.output src
                ||
                match
                  run_log ~opts ~runs ?ast:out_ast
                    guarded.Engine.result.Engine.output
                with
                | Ok out_log -> logs_equal orig_log out_log
                | Error _ -> false
              in
              if equal_now then
                if suppressed = [] then finish guarded Equivalent [] []
                else
                  finish guarded
                    (Rolled_back (List.length suppressed))
                    suppressed rolled_rules
              else diverged ()
            in
            round guarded out_ast [] [] opts.max_rounds)

let run_guarded ?options ?timeout_s ?max_output_bytes ?opts src =
  let rerun ~suppress =
    Engine.run_guarded ?options ?timeout_s ?max_output_bytes ~suppress src
  in
  let guarded, parses =
    Engine.run_guarded_parsed ?options ?timeout_s ?max_output_bytes src
  in
  gate ?opts ?src_ast:parses.Engine.src_ast ?out_ast:parses.Engine.out_ast
    ~rerun ~src guarded
