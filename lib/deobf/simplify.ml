(** Post-recovery cleanup: a parenthesised literal left behind by in-place
    replacement — [('recovered')] where the obfuscated expression used to
    be — reduces to the literal itself when the surrounding syntax allows
    it. *)

module A = Psast.Ast

let literal_inside (paren_body : A.t) =
  match paren_body.A.node with
  | A.Pipeline [ { A.node = A.Command_expression inner; _ } ] -> (
      match inner.A.node with
      | A.String_const (_, (A.Single_quoted | A.Double_quoted)) ->
          Some (`Str, inner)
      | A.Number_const _ -> Some (`Num, inner)
      | _ -> None)
  | _ -> None

(** Simplify an already-parsed script ([ast] must be the parse of [src]).
    [None] when nothing reduces or the reduction would break the script;
    [Some parsed] carries the tokens and validated parse of the result so a
    fixpoint driver can thread them onward without re-lexing or
    re-parsing. *)
let run_parsed ?log ?(pass = 0) ?(suppress = []) ~ast src =
  let edits = ref [] in
  let add node replacement =
    if
      Quarantine.admits ~phase:"simplify" ~kind:"paren"
      && (suppress = []
         || not
              (Editlog.suppressed suppress ~phase:"simplify"
                 ~before:(A.text src node) ~after:replacement))
    then edits := Pscommon.Patch.edit node.A.extent replacement :: !edits
  in
  ignore
    (A.fold_post_order_with_ancestors
       (fun ancestors () node ->
         match node.A.node with
         | A.Paren_expr body -> (
             match literal_inside body with
             | Some (kind, inner) ->
                 (* a number literal still needs its parens before
                    member access or indexing: (5).ToString() *)
                 let parent_needs_parens =
                   match (kind, ancestors) with
                   | `Num,
                     ({ A.node =
                          ( A.Member_access _ | A.Invoke_member _
                          | A.Index_expr _ );
                        _ }
                      :: _) ->
                       true
                   (* keep parens in command position: `.('iex') …` is
                      the recovered-launcher form the paper shows *)
                   | _, ({ A.node = A.Command _; _ } :: _) -> true
                   | _ -> false
                 in
                 if not parent_needs_parens then add node (A.text src inner)
             | None -> ())
         | _ -> ())
       () ast);
  if !edits = [] then None
  else
    match Pscommon.Patch.apply src !edits with
    | patched when not (String.equal patched src) -> (
        match Psparse.Parser.parse_full patched with
        | Ok parsed ->
            Pscommon.Telemetry.Metrics.incr
              ~by:(List.length !edits)
              (Pscommon.Telemetry.Metrics.counter "simplify.rule.paren");
            Option.iter
              (fun l ->
                Editlog.record_stage l ~phase:"simplify" ~pass ~src
                  (List.map (fun e -> (e, "paren")) !edits))
              log;
            Some parsed
        | Error _ -> None)
    | _ -> None
    | exception Invalid_argument _ -> None

let run_shared ?log ?pass ?suppress ~ast src =
  Option.map
    (fun p -> (p.Psparse.Parser.text, p.Psparse.Parser.ast))
    (run_parsed ?log ?pass ?suppress ~ast src)

let run src =
  match Psparse.Parser.parse src with
  | Error _ -> src
  | Ok ast -> (
      match run_shared ~ast src with Some (patched, _) -> patched | None -> src)
