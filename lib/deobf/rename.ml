(** Renaming and reformatting (paper §III-C).

    Randomised identifiers are detected statistically over the concatenation
    of all unique names: English text keeps its vowel proportion near 37.4%
    (Hayden 1950), so a set of names whose vowel share falls outside
    [32%, 42%] — or made of less than 10% letters — is considered random and
    renamed to [var{n}] / [func{n}] in order of first appearance. *)

open Pscommon
module T = Pslex.Token

let is_vowel c =
  match Char.lowercase_ascii c with
  | 'a' | 'e' | 'i' | 'o' | 'u' -> true
  | _ -> false

let is_letter c =
  match c with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false

(** Statistical randomness test on a set of identifier names. *)
let names_look_random names =
  let joined = String.concat "" names in
  (* the proportion statistic needs a minimal sample; a lone short
     identifier like "name" is not evidence of randomisation *)
  if String.length joined < 6 then false
  else begin
    let letters = ref 0 and vowels = ref 0 in
    String.iter
      (fun c ->
        if is_letter c then begin
          incr letters;
          if is_vowel c then incr vowels
        end)
      joined;
    let letter_ratio = float_of_int !letters /. float_of_int (String.length joined) in
    if letter_ratio < 0.10 then true
    else if !letters = 0 then true
    else begin
      let vowel_ratio = float_of_int !vowels /. float_of_int !letters in
      vowel_ratio < 0.32 || vowel_ratio > 0.42
    end
  end

let renameable_variable name =
  (not (Tracer.is_automatic name)) && not (String.contains name ':')

(* unique names in order of first appearance *)
let collect_names toks =
  let seen = Hashtbl.create 16 in
  let vars = ref [] in
  let funcs = ref [] in
  let rec walk = function
    | [] -> ()
    | t :: rest ->
        (match t.T.kind with
        | T.Variable when renameable_variable t.T.content ->
            let key = Strcase.lower t.T.content in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              vars := t.T.content :: !vars
            end
        | T.Keyword when Strcase.equal t.T.content "function" -> (
            match rest with
            | n :: _ when n.T.kind = T.Command || n.T.kind = T.Command_argument ->
                let key = Strcase.lower n.T.content in
                if not (Hashtbl.mem seen ("f:" ^ key)) then begin
                  Hashtbl.replace seen ("f:" ^ key) ();
                  funcs := n.T.content :: !funcs
                end
            | _ -> ())
        | _ -> ());
        walk rest
  in
  walk toks;
  (List.rev !vars, List.rev !funcs)

(* The stages below work on tokens and validate what they produce with
   one parse.  [None]: keep the input — nothing changed, or the result
   would not parse.  [Some parsed]: the new text with the tokens and parse
   the next stage reuses.  Renaming's token edits land through
   {!Editlog.land_edits}; reformatting builds a whole new text and checks
   it here. *)
let validated ~src patched =
  if String.equal patched src then None
  else Result.to_option (Psparse.Parser.parse_full patched)

(* the string entry points lex their input themselves *)
let on_text f src =
  match Pslex.Lexer.tokenize src with
  | Error _ -> src
  | Ok toks -> (
      match f ~src toks with Some p -> p.Psparse.Parser.text | None -> src)

(* the parsed entry points reuse the tokens a previous stage lexed *)
let on_parsed f (p : Psparse.Parser.parsed) =
  Option.value ~default:p (f ~src:p.Psparse.Parser.text p.Psparse.Parser.tokens)

(* the names renaming writes: var<n> for variables, func<n> for functions *)
let is_fresh_name s =
  let numbered prefix =
    let n = String.length prefix in
    String.length s > n
    && Strcase.equal (String.sub s 0 n) prefix
    && String.for_all
         (function '0' .. '9' -> true | _ -> false)
         (String.sub s n (String.length s - n))
  in
  numbered "var" || numbered "func"

let rename_tokens ~src toks =
  let vars, funcs = collect_names toks in
  if not (names_look_random (vars @ funcs)) then None
  else begin
    let var_map = Hashtbl.create 16 in
    List.iteri
      (fun i name ->
        Hashtbl.replace var_map (Strcase.lower name) (Printf.sprintf "var%d" i))
      vars;
    let func_map = Hashtbl.create 4 in
    List.iteri
      (fun i name ->
        Hashtbl.replace func_map (Strcase.lower name) (Printf.sprintf "func%d" i))
      funcs;
    let edits =
      List.filter_map
        (fun t ->
          match t.T.kind with
          | T.Variable -> (
              match Hashtbl.find_opt var_map (Strcase.lower t.T.content) with
              | Some fresh -> Some (Patch.edit t.T.extent ("$" ^ fresh))
              | None -> None)
          | T.Command | T.Command_argument -> (
              match Hashtbl.find_opt func_map (Strcase.lower t.T.content) with
              | Some fresh -> Some (Patch.edit t.T.extent fresh)
              | None -> None)
          | T.String_double ->
              let is_ident c =
                match c with
                | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
                | _ -> false
              in
              let text = ref t.T.text in
              Hashtbl.iter
                (fun old fresh ->
                  text :=
                    Strcase.replace_word ~needle:("$" ^ old)
                      ~replacement:("$" ^ fresh) ~is_word_char:is_ident !text)
                var_map;
              if !text = t.T.text then None else Some (Patch.edit t.T.extent !text)
          | _ -> None)
        toks
    in
    Option.map fst
      (Editlog.land_edits ~phase:"rename" ~pass:0 ~src
         (List.map (fun e -> (e, "rename")) edits))
  end

(** Rename random identifiers to [var{n}] / [func{n}].  Replacement is
    token-based and also rewrites interpolations inside double-quoted
    strings; the result is syntax-checked. *)
let rename src = on_text rename_tokens src

let rename_parsed p = on_parsed rename_tokens p

let reformat_tokens ~src toks =
  let buf = Buffer.create (String.length src) in
  let depth = ref 0 in
  let paren_depth = ref 0 in
  let group_stack = ref [] in
  let at_line_start = ref true in
  let pending_newlines = ref 0 in
  let emit_indent () =
    if !at_line_start then begin
      Buffer.add_string buf (String.make (2 * max 0 !depth) ' ');
      at_line_start := false
    end
  in
  let newline () =
    if not !at_line_start then pending_newlines := 1
  in
  let flush_newlines () =
    if !pending_newlines > 0 then begin
      Buffer.add_char buf '\n';
      pending_newlines := 0;
      at_line_start := true
    end
  in
  let prev_stop = ref 0 in
  List.iter
    (fun t ->
      match t.T.kind with
      | T.Statement_separator when !paren_depth > 0 ->
          (* ';' inside for(...) headers must stay *)
          flush_newlines ();
          Buffer.add_string buf "; ";
          prev_stop := t.T.extent.Extent.stop
      | T.New_line when !paren_depth > 0 ->
          prev_stop := t.T.extent.Extent.stop
      | T.New_line | T.Statement_separator ->
          newline ();
          prev_stop := t.T.extent.Extent.stop
      | T.Line_continuation ->
          prev_stop := t.T.extent.Extent.stop
      | T.Comment ->
          (* comments carry analyst-relevant context; keep them on their
             own terms and force a break after line comments *)
          flush_newlines ();
          if (not !at_line_start) then Buffer.add_char buf ' ';
          emit_indent ();
          Buffer.add_string buf t.T.text;
          if not (Pscommon.Strcase.starts_with ~prefix:"<#" t.T.text) then
            newline ();
          prev_stop := t.T.extent.Extent.stop
      | _ ->
          flush_newlines ();
          (match t.T.kind with
          | T.Group_end when t.T.content = "}" -> (
              match !group_stack with
              | `Brace :: rest ->
                  decr depth;
                  group_stack := rest
              | _ :: rest -> group_stack := rest
              | [] -> ())
          | T.Group_end when t.T.content = ")" -> (
              decr paren_depth;
              match !group_stack with _ :: rest -> group_stack := rest | [] -> ())
          | _ -> ());
          let had_gap = t.T.extent.Extent.start > !prev_stop in
          if (not !at_line_start) && had_gap then Buffer.add_char buf ' ';
          emit_indent ();
          Buffer.add_string buf t.T.text;
          (match t.T.kind with
          | T.Group_start when t.T.content = "{" ->
              incr depth;
              group_stack := `Brace :: !group_stack
          | T.Group_start when t.T.content = "@{" ->
              group_stack := `Hash :: !group_stack
          | T.Group_start ->
              incr paren_depth;
              group_stack := `Paren :: !group_stack
          | _ -> ());
          prev_stop := t.T.extent.Extent.stop)
    toks;
  if not !at_line_start then Buffer.add_char buf '\n';
  validated ~src (Buffer.contents buf)

(** Reformat: collapse every horizontal whitespace gap to one space, drop
    line continuations and blank-line runs, and indent by brace depth.
    Token adjacency (member access, method parens) is preserved because only
    {e existing} gaps are rewritten. *)
let reformat src = on_text reformat_tokens src

let reformat_parsed p = on_parsed reformat_tokens p

