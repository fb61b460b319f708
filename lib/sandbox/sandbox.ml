(** Behaviour sandbox (the TianQiong substitute, paper §IV-C3).

    Runs a script with the interpreter in [Sandbox] mode: side effects are
    recorded as events instead of performed, and downloads return synthetic
    payloads.  Behavioural consistency between an original sample and its
    deobfuscation result is equality of their {e network} event sets. *)

module Value = Psvalue.Value

type report = {
  events : Pseval.Env.event list;
  commands : string list;
      (** unresolved commands with stringified args, invocation order *)
  output : Value.t list;
  host_output : Value.t list;  (** what Write-Host printed *)
  bindings : (string * Value.t) list;
      (** final global-scope bindings the script established, by name *)
  error : string option;  (** execution error, if any; events are kept *)
  failure : Pscommon.Guard.failure option;
      (** set when the run was contained (stack overflow, deadline, step
          budget, stray exception) rather than finishing *)
}

let run ?max_steps ?ast ?payloads script =
  let max_steps =
    Option.value max_steps
      ~default:(Pseval.Env.step_budget ~bytes:(String.length script))
  in
  let limits = { Pseval.Env.default_limits with Pseval.Env.max_steps } in
  let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox ~limits () in
  env.Pseval.Env.payloads <- payloads;
  let report error failure =
    { events = Pseval.Env.events env; commands = Pseval.Env.commands env;
      output = []; host_output = Pseval.Env.sunk_output env;
      bindings = Pseval.Env.global_bindings env; error; failure }
  in
  match
    Pscommon.Guard.protect (fun () ->
        Pseval.Interp.run_parsed env ~src:script
          (match ast with
          | Some ast -> Ok ast
          | None -> Pseval.Interp.parse_piece script))
  with
  | Ok (Ok output) -> { (report None None) with output }
  | Ok (Error msg) when env.Pseval.Env.steps > max_steps ->
      (* the interpreter reports an exhausted step budget as an evaluation
         error, but the run was cut short, not finished: what the script
         would have done next is unknown *)
      report (Some msg)
        (Some (Pscommon.Guard.Interpreter_limit "step budget exhausted"))
  | Ok (Error msg) -> report (Some msg) None
  | Error failure ->
      (* events recorded before containment are kept: a sample that beacons
         then hangs still yields its network signature *)
      report (Some (Pscommon.Guard.failure_to_string failure)) (Some failure)

(* ---------- canonical effect log (verification) ---------- *)

(* Script-block values stringify to their source text, which variable
   renaming legitimately rewrites; a placeholder keeps the log insensitive
   to renames while still recording that a block was emitted. *)
let canon_value v =
  match v with
  | Value.Script_block _ -> "<scriptblock>"
  | v -> Value.to_string v

(* Layer unwrapping legitimately deletes the interpreter-invocation event
   (`powershell -enc …` becomes the payload itself), so that one event is
   excluded from the comparison log. *)
let comparable_event ev =
  match ev with
  | Pseval.Env.Process_start "powershell" -> false
  | _ -> true

let effect_log r =
  let cmd c = "cmd:" ^ c in
  let event ev = "event:" ^ Pseval.Env.event_to_string ev in
  let out v = "out:" ^ canon_value v in
  let host v = "host:" ^ canon_value v in
  (* final bindings are compared as a sorted multiset of values, not by
     name: variable renaming ($a -> $var1) preserves semantics but not
     names, and the gate must not flag it *)
  let vars =
    r.bindings
    |> List.map (fun (_, v) -> "var:" ^ canon_value v)
    |> List.sort String.compare
  in
  List.map cmd r.commands
  @ List.map event (List.filter comparable_event r.events)
  @ List.map out r.output
  @ List.map host r.host_output
  @ vars
  @ (match r.error with Some _ -> [ "error" ] | None -> [])

let run_for_verify ~max_steps ?ast ?payloads script =
  let r = run ~max_steps ?ast ?payloads script in
  match r.failure with
  | Some f -> Error (Pscommon.Guard.failure_to_string f)
  | None -> Ok (effect_log r)

let is_network_event = function
  | Pseval.Env.Dns_query _ | Pseval.Env.Tcp_connect _ | Pseval.Env.Http_get _
  | Pseval.Env.Http_download _ ->
      true
  | Pseval.Env.File_write _ | Pseval.Env.File_read _ | Pseval.Env.Process_start _
  | Pseval.Env.Registry_write _ | Pseval.Env.Sleep _ ->
      false

let network_signature report =
  report.events
  |> List.filter is_network_event
  |> List.map Pseval.Env.event_to_string
  |> List.sort_uniq String.compare

let has_network_behavior report = network_signature report <> []

(** Same network behaviour: equal sets of network events. *)
let same_network_behavior a b =
  List.equal String.equal (network_signature a) (network_signature b)

(** The paper's effectiveness rule: a deobfuscation result counts only when
    the tool actually changed the script {e and} behaviour is preserved. *)
let effective ~original ~deobfuscated =
  (not (String.equal (String.trim original) (String.trim deobfuscated)))
  && same_network_behavior (run original) (run deobfuscated)
