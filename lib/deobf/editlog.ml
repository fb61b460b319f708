(** Structured edit journal for the semantic-equivalence gate, and the one
    place an edit lands ({!admits}, {!land_edits}).

    Every in-place extent edit the pipeline lands — token-phase rewrites,
    piece recoveries, variable substitutions, layer unwraps, dynamic
    region replacements, paren simplifications — is recorded as a
    [(site, kind, before, after)] record, grouped into {e stages}: one
    stage per successful application of a phase to a concrete input text.
    Because the pipeline threads each stage's output into the next stage's
    input, replaying a {e prefix} of the flattened edit sequence is exact:
    whole stages reproduce the recorded intermediate texts byte for byte,
    and a partial stage is a plain {!Pscommon.Patch.apply} of the first
    [k] normalized edits.  That exactness is what lets {!Verify} bisect
    the journal to the first behaviour-changing edit. *)

open Pscommon

type edit = {
  phase : string;  (** producing phase: ["token"], ["recover"], ["simplify"] *)
  kind : string;  (** finer site label: ["piece"], ["substitute"], ["unwrap"], … *)
  pass : int;  (** fixpoint pass index; [-1] for the entry token phase *)
  start : int;
  stop : int;  (** byte extent in the stage's input text *)
  before : string;
  after : string;
}

type stage = {
  s_phase : string;
  s_pass : int;
  s_edits : edit list;  (** in application order (sorted, nesting resolved) *)
}

type t = { mutable stages_rev : stage list }

let create () = { stages_rev = [] }

(* Journal one landed stage: [applied] is [Patch.normalize] of the
   proposals' edits, the records themselves, so each finds its kind by
   physical identity. *)
let record t ~phase ~pass ~src pairs applied =
  let edits =
    List.map
      (fun (e : Patch.edit) ->
        let start = e.Patch.extent.Extent.start
        and stop = e.Patch.extent.Extent.stop in
        {
          phase;
          kind = List.assq e pairs;
          pass;
          start;
          stop;
          before = String.sub src start (stop - start);
          after = e.Patch.replacement;
        })
      applied
  in
  t.stages_rev <-
    { s_phase = phase; s_pass = pass; s_edits = edits } :: t.stages_rev

let stages t = List.rev t.stages_rev

let flatten stages = Array.of_list (List.concat_map (fun s -> s.s_edits) stages)

let to_patch e =
  Patch.edit { Extent.start = e.start; stop = e.stop } e.after

(* Apply the first [n] edits of the flattened sequence to [src].  Whole
   stages chain exactly (each stage's input is the previous stage's
   output); a trailing partial stage applies a prefix of its normalized,
   non-overlapping edits.  Stages after the cut are dropped entirely. *)
let replay_prefix ~src stages n =
  let rec go text remaining = function
    | [] -> text
    | st :: rest ->
        let k = List.length st.s_edits in
        if remaining <= 0 then text
        else if remaining >= k then
          go (Patch.apply text (List.map to_patch st.s_edits)) (remaining - k) rest
        else
          Patch.apply text
            (List.map to_patch (List.filteri (fun i _ -> i < remaining) st.s_edits))
  in
  go src n stages

(* ---------- suppression (rollback) ---------- *)

(* Rollback is content-based, not position-based: a re-run of the pipeline
   recomputes every downstream offset, so the suppressed edit is matched by
   what it did, not where.  All textually identical edits are suppressed
   together — conservative (a divergent rewrite is unsafe wherever it
   lands) and deterministic. *)
type suppression = { sup_phase : string; sup_before : string; sup_after : string }

let suppress_edit e = { sup_phase = e.phase; sup_before = e.before; sup_after = e.after }

(* pseudo-suppression for the finalization phase (rename + reformat): those
   rewrites are not extent edits, so divergence attributed to them rolls
   back the whole phase *)
let suppress_finalize = { sup_phase = "finalize"; sup_before = ""; sup_after = "" }

let finalize_suppressed sups =
  List.exists (fun s -> String.equal s.sup_phase "finalize") sups

let suppressed sups ~phase ~before ~after =
  List.exists
    (fun s ->
      String.equal s.sup_phase phase
      && String.equal s.sup_before before
      && String.equal s.sup_after after)
    sups

let describe s =
  if String.equal s.sup_phase "finalize" then "finalize"
  else
    let clip t =
      if String.length t <= 40 then t else String.sub t 0 37 ^ "..."
    in
    Printf.sprintf "%s: %S -> %S" s.sup_phase (clip s.sup_before) (clip s.sup_after)

(* ---------- landing (the one place an edit lands) ---------- *)

(* Quarantine first, as every stage always asked it: its first answer for
   a rule is cached for the request, and a half-open breaker takes its
   probe slot on that answer.  [before] is sliced only when there is a
   suppression to match it against. *)
let admits ~suppress ~phase ~kind ~src ~extent ~after =
  Quarantine.admits ~phase ~kind
  && (suppress = []
     || not
          (suppressed suppress ~phase ~before:(Extent.text src extent) ~after))

(* finalization is suppressed whole, before the breaker is asked *)
let admits_finalize suppress =
  (not (finalize_suppressed suppress))
  && Quarantine.admits ~phase:"engine" ~kind:"finalize"

(* normalized once: [applied] is both what Patch.apply performs and what
   the journal records *)
let land_edits ?log ~phase ~pass ~src pairs =
  match Patch.normalize (List.map fst pairs) with
  | exception Invalid_argument _ -> None
  | [] -> None
  | applied -> (
      match Patch.apply src applied with
      | exception Invalid_argument _ -> None
      | patched when String.equal patched src -> None
      | patched -> (
          match Psparse.Parser.parse_full patched with
          | Error _ -> None
          | Ok parsed ->
              Option.iter
                (fun t -> record t ~phase ~pass ~src pairs applied)
                log;
              Some (parsed, List.length applied)))
