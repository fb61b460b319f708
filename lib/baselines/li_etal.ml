(** Re-implementation of Li et al. (CCS 2019), per the paper's comparison
    setup (§IV-C1): the ML classifier is removed and every subtree whose
    root is a PipelineAst is processed.

    Mechanism: execute each PipelineAst subtree in a C#-hosted PowerShell
    runspace, then replace {e all occurrences} of the subtree text in the
    script with the stringified result.

    Documented failure modes reproduced here:
    {ul
    {- no variable context — pieces that mention variables fail;}
    {- object results are replaced by their type name, bare
       ([New-Object Net.WebClient] → [System.Net.WebClient]), which is not
       valid PowerShell (paper Fig 8(c));}
    {- string results are spliced as double-quoted literals;}
    {- replacement is global text substitution, not extent-based, so equal
       text in different contexts is rewritten too (semantics change);}
    {- the C# host's [$PSHome] points at the .NET runtime directory, so
       [$pshome\[4\]+$pshome\[30\]+'x'] recovers the wrong letters.}} *)

module A = Psast.Ast
module Value = Psvalue.Value

(* the hosting bug: System.Management.Automation.dll location, not the
   Windows PowerShell home *)
let csharp_pshome = "C:\\Program Files\\dotnet\\shared\\Microsoft.NETCore.App\\5.0.11"

let fresh_env () =
  let limits = { Pseval.Env.default_limits with Pseval.Env.max_steps = 200_000 } in
  let env = Pseval.Env.create ~mode:Pseval.Env.Recovery ~limits () in
  Pseval.Env.set_var env (Psparse.Names.var_key "pshome") (Value.Str csharp_pshome);
  env

let render_result value =
  match value with
  | Value.Str s when not (String.contains s '"') ->
      Some (Printf.sprintf "\"%s\"" s)
  | Value.Str _ -> None
  | Value.Int n -> Some (string_of_int n)
  | Value.Obj o -> Some o.Value.otype  (* bare type name: the famous bug *)
  | Value.Char c -> Some (Printf.sprintf "\"%c\"" c)
  | Value.Float f -> Some (Value.float_to_string f)
  | Value.Null | Value.Bool _ | Value.Arr _ | Value.Hash _
  | Value.Script_block _ | Value.Secure_string _ ->
      None

let trivial_piece text =
  let t = String.trim text in
  String.length t < 3
  || (String.length t >= 2 && t.[0] = '\'' && t.[String.length t - 1] = '\''
     && not (String.contains (String.sub t 1 (String.length t - 2)) '\''))

let collect_replacements src ast =
  let pairs = ref [] in
  ignore
    (A.fold_post_order_with_ancestors
       (fun ancestors () node ->
         match node.A.node with
         | A.Pipeline _ -> (
             (* Li et al. miss pipelines hanging off an assignment — the
               limitation behind Table II's position failures *)
             let under_assignment =
               match ancestors with
               | { A.node = A.Assignment _; _ } :: _ -> true
               | _ -> false
             in
             let text = A.text src node in
             if under_assignment || trivial_piece text then ()
             else
               let env = fresh_env () in
               match Pseval.Interp.invoke_piece env text with
               | Ok value -> (
                   match render_result value with
                   | Some rendered when rendered <> String.trim text ->
                       pairs := (String.trim text, rendered) :: !pairs
                   | Some _ | None -> ())
               | Error _ -> ())
         | _ -> ())
       () ast);
  (* longest pieces first so nested pieces don't clobber outer matches *)
  List.sort_uniq
    (fun (a, _) (b, _) ->
      match Int.compare (String.length b) (String.length a) with
      | 0 -> String.compare a b
      | c -> c)
    !pairs

let global_replace ~needle ~replacement s =
  if needle = "" then s
  else begin
    let buf = Buffer.create (String.length s) in
    let nl = String.length needle in
    let rec loop i =
      if i > String.length s - nl then
        Buffer.add_substring buf s i (String.length s - i)
      else if String.sub s i nl = needle then begin
        Buffer.add_string buf replacement;
        loop (i + nl)
      end
      else begin
        Buffer.add_char buf s.[i];
        loop (i + 1)
      end
    in
    loop 0;
    Buffer.contents buf
  end

let one_round src =
  match Psparse.Parser.parse src with
  | Error _ -> src
  | Ok ast ->
      let replacements = collect_replacements src ast in
      List.fold_left
        (fun acc (needle, replacement) -> global_replace ~needle ~replacement acc)
        src replacements

let deobfuscate script =
  let rec fix s iters =
    if iters = 0 then s
    else
      let s' = one_round s in
      if String.equal s' s then s else fix s' (iters - 1)
  in
  Tool.plain (fix script 4)

let tool = { Tool.name = "Li et al."; deobfuscate }
