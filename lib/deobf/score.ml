(** Obfuscation identification and quantification (paper §IV-B2).

    Each known technique is detected with token- and AST-level features (the
    paper: "based on regular expression matching, tokens and AST"); a script
    scores its technique's level (L1 = 1, L2 = 2, L3 = 3), each technique
    counted once.  Used for Table I (wild proportions), Table V (mitigation)
    and the "most obfuscated sample" selection. *)

open Pscommon
module T = Pslex.Token
module A = Psast.Ast

type detection = {
  ticking : bool;
  whitespacing : bool;
  random_case : bool;
  random_name : bool;
  alias : bool;
  concat : bool;
  reorder : bool;
  replace : bool;
  reverse : bool;
  enc_radix : bool;  (** binary / octal / ascii / hex char-code decoding *)
  enc_base64 : bool;
  enc_whitespace : bool;
  enc_specialchar : bool;
  enc_bxor : bool;
  secure_string : bool;
  compress : bool;
}

let none =
  { ticking = false; whitespacing = false; random_case = false;
    random_name = false; alias = false; concat = false; reorder = false;
    replace = false; reverse = false; enc_radix = false; enc_base64 = false;
    enc_whitespace = false; enc_specialchar = false; enc_bxor = false;
    secure_string = false; compress = false }

(* known canonical case for case-anomaly detection *)
let expected_case word =
  match Pslex.Aliases.canonical_case word with
  | Some c -> Some c
  | None -> Pslex.Lexer.keyword_canonical word

let mixed_weird_case word =
  (* at least two lower→upper transitions inside one dash-part *)
  let transitions = ref 0 in
  let prev_lower = ref false in
  String.iter
    (fun c ->
      if c = '-' then prev_lower := false
      else begin
        if !prev_lower && c >= 'A' && c <= 'Z' then incr transitions;
        prev_lower := c >= 'a' && c <= 'z'
      end)
    word;
  !transitions >= 2

let detect_tokens toks =
  let ticking = ref false and random_case = ref false and alias = ref false in
  let specials = ref false in
  let var_names = ref [] in
  List.iter
    (fun t ->
      match t.T.kind with
      | T.Command ->
          if String.contains t.T.text '`' then ticking := true;
          if Pslex.Aliases.is_alias t.T.content then alias := true;
          (match expected_case t.T.content with
          | Some canonical ->
              if t.T.text <> canonical && Strcase.equal t.T.text canonical then
                random_case := true
          | None -> if mixed_weird_case t.T.text then random_case := true)
      | T.Keyword ->
          if t.T.text <> t.T.content && t.T.text <> String.capitalize_ascii t.T.content
          then random_case := true
      | T.Member | T.Type_name | T.Command_parameter ->
          if mixed_weird_case t.T.text then random_case := true
      | T.Variable ->
          if Rename.renameable_variable t.T.content then begin
            var_names := t.T.content :: !var_names;
            if
              String.length t.T.content > 0
              && not (String.exists Rename.is_letter t.T.content)
            then specials := true
          end
      | T.Operator ->
          if String.length t.T.content > 1 && t.T.content.[0] = '-'
             && mixed_weird_case t.T.text
          then random_case := true
      | _ -> ())
    toks;
  let random_name =
    !specials
    || (List.length (List.sort_uniq Strcase.compare !var_names) >= 2
       && Rename.names_look_random (List.sort_uniq Strcase.compare !var_names))
  in
  (!ticking, !random_case, !alias, random_name)

let whitespacing_of_tokens src toks =
  (* ≥3 consecutive spaces outside strings, or space before ';' *)
  let rec check prev_stop = function
    | [] -> false
    | t :: rest ->
        let gap_start = prev_stop and gap_stop = t.T.extent.Extent.start in
        let gap_len = gap_stop - gap_start in
        if
          gap_len >= 3
          && String.for_all
               (fun c -> c = ' ' || c = '\t')
               (String.sub src gap_start gap_len)
        then true
        else check t.T.extent.Extent.stop rest
  in
  check 0 toks

let is_string_node (n : A.t) =
  match n.A.node with
  | A.String_const (_, (A.Single_quoted | A.Double_quoted)) -> true
  | _ -> false

let rec concat_chain_of_strings (n : A.t) =
  match n.A.node with
  | A.Binary_expr (A.Add, _, a, b) ->
      (is_string_node a || concat_chain_of_strings a) && is_string_node b
  | _ -> false

let member_named name m =
  match m with
  | A.Member_name n -> Strcase.equal n.A.written name
  | A.Member_dynamic _ -> false

let detect_ast src =
  match Psparse.Parser.parse src with
  | Error _ -> none
  | Ok ast ->
      let d = ref none in
      let set f = d := f !d in
      A.iter_post_order
        (fun n ->
          match n.A.node with
          | A.Binary_expr (A.Add, _, _, _) ->
              if concat_chain_of_strings n then set (fun d -> { d with concat = true })
          | A.Binary_expr (A.Format, _, lhs, _) -> (
              match lhs.A.node with
              | A.String_const (s, _) | A.Expandable_string (s, _) ->
                  if Strcase.contains ~needle:"{0}" s || Strcase.contains ~needle:"{1}" s
                  then set (fun d -> { d with reorder = true })
              | _ -> ())
          | A.Binary_expr (A.Replace, _, _, _) ->
              set (fun d -> { d with replace = true })
          | A.Binary_expr (A.Bxor, _, _, _) ->
              set (fun d -> { d with enc_bxor = true })
          | A.Invoke_member (_, m, _, _) when member_named "replace" m ->
              set (fun d -> { d with replace = true })
          | A.Invoke_member (_, m, _, true) when member_named "frombase64string" m ->
              set (fun d -> { d with enc_base64 = true })
          | A.Invoke_member (_, m, args, true) when member_named "toint32" m ->
              if List.length args >= 2 then set (fun d -> { d with enc_radix = true })
          | A.Invoke_member (_, m, _, true)
            when member_named "securestringtobstr" m || member_named "ptrtostringauto" m ->
              set (fun d -> { d with secure_string = true })
          | A.Invoke_member (_, m, _, true) when member_named "reverse" m ->
              set (fun d -> { d with reverse = true })
          | A.Index_expr (obj, idx) -> (
              (* 'gnirts'[-1..-n] reversal *)
              match (obj.A.node, idx.A.node) with
              | (A.String_const _ | A.Variable_expr _),
                A.Binary_expr (A.Range, _, a, b) -> (
                  let negative e =
                    match e.A.node with
                    | A.Number_const (A.Int_lit n) -> n < 0
                    | A.Unary_expr (A.Negate, _) -> true
                    | _ -> false
                  in
                  if negative a && negative b then
                    set (fun d -> { d with reverse = true }))
              | _ -> ())
          | A.Convert_expr ({ A.written = t; _ }, inner) -> (
              let tn = Strcase.lower t in
              if tn = "char" then
                match inner.A.node with
                | A.Convert_expr ({ A.written = t2; _ }, _)
                  when Strcase.equal t2 "int" ->
                    set (fun d -> { d with enc_radix = true })
                | A.Paren_expr _ | A.Variable_expr _ | A.Number_const _ ->
                    set (fun d -> { d with enc_radix = true })
                | _ -> ())
          | A.Command cmd -> (
              match A.command_name cmd with
              | Some name -> (
                  if Strcase.equal name "convertto-securestring"
                     || Strcase.equal name "convertfrom-securestring"
                  then set (fun d -> { d with secure_string = true });
                  (* powershell -enc *)
                  if
                    List.exists
                      (fun n -> Strcase.equal n name)
                      [ "powershell"; "powershell.exe"; "pwsh"; "pwsh.exe" ]
                  then
                    List.iter
                      (function
                        | A.Elem_parameter ({ A.written = p; _ }, _) ->
                            let p = Strcase.lower p in
                            if String.length p > 1 && p.[1] = 'e' then
                              set (fun d -> { d with enc_base64 = true })
                        | _ -> ())
                      cmd.A.cmd_elements)
              | None -> ())
          | A.Type_literal { A.written = t; _ } ->
              let tn = Strcase.lower t in
              if Strcase.contains ~needle:"deflatestream" tn
                 || Strcase.contains ~needle:"gzipstream" tn
              then set (fun d -> { d with compress = true });
              if Strcase.contains ~needle:"marshal" tn then
                set (fun d -> { d with secure_string = true })
          | A.String_const (s, _) ->
              if String.length s >= 40 && Encoding.Base64.is_plausible s then
                set (fun d -> { d with enc_base64 = true });
              if String.length s >= 40 then begin
                let spaces = ref 0 in
                String.iter (fun c -> if c = ' ' then incr spaces) s;
                if float_of_int !spaces > 0.8 *. float_of_int (String.length s)
                then set (fun d -> { d with enc_whitespace = true })
              end
          | A.Variable_expr v ->
              if
                String.length v.A.var_name > 0
                && (not (Tracer.is_automatic v.A.var_name))
                && not (String.exists Rename.is_letter v.A.var_name)
                && not (String.exists (fun c -> c >= '0' && c <= '9') v.A.var_name)
                && not (List.mem v.A.var_name [ "_"; "$"; "?"; "^" ])
              then set (fun d -> { d with enc_specialchar = true })
          | _ -> ())
        ast;
      !d

let detect src =
  (* one tokenize feeds both the token-feature pass and the whitespacing
     check; the AST pass parses separately *)
  let (ticking, random_case, alias, random_name), whitespacing =
    match Pslex.Lexer.tokenize src with
    | Error _ -> ((false, false, false, false), false)
    | Ok toks -> (detect_tokens toks, whitespacing_of_tokens src toks)
  in
  let d = detect_ast src in
  { d with ticking; random_case; alias; random_name; whitespacing }

(** Levels present in a script. *)
let levels d =
  let l1 = d.ticking || d.whitespacing || d.random_case || d.random_name || d.alias in
  let l2 = d.concat || d.reorder || d.replace || d.reverse in
  let l3 =
    d.enc_radix || d.enc_base64 || d.enc_whitespace || d.enc_specialchar
    || d.enc_bxor || d.secure_string || d.compress
  in
  (l1, l2, l3)

(** Obfuscation score: each detected technique counts its level once. *)
let score_of_detection d =
  let score = ref 0 in
  let add level present = if present then score := !score + level in
  add 1 d.ticking;
  add 1 d.whitespacing;
  add 1 d.random_case;
  add 1 d.random_name;
  add 1 d.alias;
  add 2 d.concat;
  add 2 d.reorder;
  add 2 d.replace;
  add 2 d.reverse;
  add 3 d.enc_radix;
  add 3 d.enc_base64;
  add 3 d.enc_whitespace;
  add 3 d.enc_specialchar;
  add 3 d.enc_bxor;
  add 3 d.secure_string;
  add 3 d.compress;
  !score

let score src = score_of_detection (detect src)

let technique_names d =
  List.filter_map
    (fun (present, name) -> if present then Some name else None)
    [
      (d.ticking, "ticking"); (d.whitespacing, "whitespacing");
      (d.random_case, "random-case"); (d.random_name, "random-name");
      (d.alias, "alias"); (d.concat, "concatenate"); (d.reorder, "reorder");
      (d.replace, "replace"); (d.reverse, "reverse");
      (d.enc_radix, "encode-radix"); (d.enc_base64, "encode-base64");
      (d.enc_whitespace, "encode-whitespace");
      (d.enc_specialchar, "encode-specialchar"); (d.enc_bxor, "encode-bxor");
      (d.secure_string, "securestring"); (d.compress, "compress");
    ]
