(** Token parsing phase (paper §III-A).

    Recovers L1 obfuscation from token attributes alone: backtick removal
    (the tokenizer already strips ticks from [content]), alias expansion,
    canonical casing for commands / keywords / operators / members / types,
    and line-continuation removal.  Each recovered token is replaced in
    place. *)

open Pscommon
module T = Pslex.Token

(* canonical casing for members that appear in obfuscated recovery code *)
let member_case_table =
  List.fold_left
    (fun acc m -> Strcase.Map.add m m acc)
    Strcase.Map.empty
    [
      "Replace"; "Split"; "Join"; "Substring"; "ToUpper"; "ToLower";
      "ToCharArray"; "ToString"; "Trim"; "TrimStart"; "TrimEnd"; "StartsWith";
      "EndsWith"; "Contains"; "IndexOf"; "LastIndexOf"; "Insert"; "Remove";
      "PadLeft"; "PadRight"; "Normalize"; "Length"; "Count"; "Chars";
      "Invoke"; "InvokeReturnAsIs"; "DownloadString"; "DownloadFile";
      "DownloadData"; "OpenRead"; "ReadToEnd"; "ReadLine"; "Close"; "Dispose";
      "GetString"; "GetBytes"; "FromBase64String"; "ToBase64String";
      "ToInt32"; "ToInt16"; "ToChar"; "ToByte"; "GetType"; "Create";
      "Unicode"; "UTF8"; "ASCII"; "Default"; "Reverse"; "GetEnumerator";
      "SecureStringToBSTR"; "PtrToStringAuto"; "PtrToStringBSTR";
      "GetEncoding"; "Decompress"; "Compress"; "Keys"; "Values";
    ]

let type_case_table =
  List.fold_left
    (fun acc t -> Strcase.Map.add t t acc)
    Strcase.Map.empty
    [
      "string"; "char"; "int"; "long"; "byte"; "bool"; "double"; "float";
      "array"; "object"; "regex"; "scriptblock"; "void"; "char[]"; "byte[]";
      "int[]"; "string[]"; "Convert"; "Text.Encoding"; "System.Text.Encoding";
      "Math"; "Environment"; "IO.MemoryStream"; "System.IO.MemoryStream";
      "IO.StreamReader"; "IO.Compression.DeflateStream";
      "IO.Compression.GzipStream"; "IO.Compression.CompressionMode";
      "Runtime.InteropServices.Marshal";
      "System.Runtime.InteropServices.Marshal"; "System.Convert";
      (* type names that appear as New-Object arguments *)
      "Net.WebClient"; "System.Net.WebClient"; "Net.Sockets.TcpClient";
      "System.Net.Sockets.TcpClient"; "Uri"; "System.Uri";
    ]

let canonical_member name =
  match Strcase.Map.find_opt name member_case_table with
  | Some canonical -> canonical
  | None -> name

let canonical_type name =
  match Strcase.Map.find_opt name type_case_table with
  | Some canonical -> canonical
  | None -> name

let recover_command t =
  (* content already has backticks removed; then resolve aliases and
     canonicalise case of known cmdlets *)
  let content = t.T.content in
  match Pslex.Aliases.resolve content with
  | Some full -> Some full
  | None -> (
      match Pslex.Aliases.canonical_case content with
      | Some canonical -> if canonical <> t.T.text then Some canonical else None
      | None -> if content <> t.T.text then Some content else None)

let token_edit t =
  match t.T.kind with
  | T.Command -> (
      match recover_command t with
      | Some replacement -> Some (Patch.edit t.T.extent replacement, "command")
      | None -> None)
  | T.Keyword ->
      (* keywords canonicalise to lowercase; content is already lowered *)
      if t.T.content <> t.T.text then
        Some (Patch.edit t.T.extent t.T.content, "keyword")
      else None
  | T.Command_parameter ->
      let lowered = Strcase.lower t.T.text in
      if lowered <> t.T.text then
        Some (Patch.edit t.T.extent lowered, "parameter")
      else None
  | T.Operator ->
      (* dash-word operators: content is the lowercase spelling *)
      if
        String.length t.T.content > 1
        && t.T.content.[0] = '-'
        && t.T.content <> t.T.text
      then Some (Patch.edit t.T.extent t.T.content, "operator")
      else None
  | T.Member ->
      let canonical = canonical_member t.T.content in
      if canonical <> t.T.text then
        Some (Patch.edit t.T.extent canonical, "member")
      else None
  | T.Type_name ->
      let canonical = canonical_type t.T.content in
      if "[" ^ canonical ^ "]" <> t.T.text then
        Some (Patch.edit t.T.extent ("[" ^ canonical ^ "]"), "type")
      else None
  | T.Variable ->
      (* variable names are case-insensitive; lowercase unifies them.
         ${...} braced forms are kept as-is. *)
      if
        String.length t.T.text > 1
        && t.T.text.[1] <> '{'
        && Strcase.lower t.T.text <> t.T.text
      then Some (Patch.edit t.T.extent (Strcase.lower t.T.text), "variable")
      else None
  | T.Line_continuation -> Some (Patch.edit t.T.extent " ", "continuation")
  | T.Command_argument ->
      (* barewords also carry ticks; well-known type-name arguments (e.g.
         [New-Object Net.WebClient]) additionally canonicalise their case *)
      let recovered =
        match Strcase.Map.find_opt t.T.content type_case_table with
        | Some canonical -> canonical
        | None -> t.T.content
      in
      if recovered <> t.T.text then
        Some (Patch.edit t.T.extent recovered, "argument")
      else None
  | T.Comment | T.Group_start | T.Group_end
  | T.Index_start | T.Index_end | T.New_line | T.Number
  | T.Statement_separator | T.String_single | T.String_double
  | T.String_single_here | T.String_double_here | T.Splat_variable ->
      None

(** Run the token phase, one tokenize (none when the caller hands in
    [toks], the tokens of [src]) and, only when edits landed, one
    validating parse.  [None] when the phase changed nothing — the input
    does not lex, no token needs recovery, or the patched result would not
    parse (paper §IV-A: skip a step that introduces syntax errors).
    [Some parsed] carries the tokens and validated parse of the result so
    the caller can thread them into the next stage without re-lexing or
    re-parsing. *)
let run_parsed ?log ?(pass = 0) ?(suppress = []) ?toks src =
  match
    match toks with Some toks -> Ok toks | None -> Pslex.Lexer.tokenize src
  with
  | Error _ -> None
  | Ok toks -> (
      let keep (e, kind) =
        Quarantine.admits ~phase:"token" ~kind
        && (suppress = []
           ||
           let start = e.Patch.extent.Extent.start
           and stop = e.Patch.extent.Extent.stop in
           not
             (Editlog.suppressed suppress ~phase:"token"
                ~before:(String.sub src start (stop - start))
                ~after:e.Patch.replacement))
      in
      let pairs = List.filter keep (List.filter_map token_edit toks) in
      let edits = List.map fst pairs in
      if edits = [] then None
      else
        match Patch.apply src edits with
        | patched when not (String.equal patched src) -> (
            match Psparse.Parser.parse_full patched with
            | Ok parsed ->
                (* rule attribution, counted only for edits that landed in a
                   syntactically valid result *)
                List.iter
                  (fun (_, kind) ->
                    Telemetry.Metrics.incr
                      (Telemetry.Metrics.counter ("token.rule." ^ kind)))
                  pairs;
                Option.iter
                  (fun l -> Editlog.record_stage l ~phase:"token" ~pass ~src pairs)
                  log;
                Some parsed
            | Error _ -> None)
        | _ -> None
        | exception Invalid_argument _ -> None)

let run_shared ?log ?pass ?suppress src =
  Option.map
    (fun p -> (p.Psparse.Parser.text, p.Psparse.Parser.ast))
    (run_parsed ?log ?pass ?suppress src)

(** Run the token phase.  The result is checked for syntactic validity; on
    any breakage the input is returned unchanged. *)
let run ?log ?pass ?suppress src =
  match run_parsed ?log ?pass ?suppress src with
  | Some p -> p.Psparse.Parser.text
  | None -> src
