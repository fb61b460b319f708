module A = Psast.Ast
module Strcase = Pscommon.Strcase

let type_key name =
  let n = Strcase.lower (String.trim name) in
  let n =
    if Strcase.starts_with ~prefix:"system." n then
      String.sub n 7 (String.length n - 7)
    else n
  in
  (* collapse internal whitespace in things like [char []] *)
  if String.contains n ' ' then String.concat "" (String.split_on_char ' ' n)
  else n

let type_name written = { A.written; key = type_key written }
let folded written = { A.written; key = Strcase.lower written }

let parameter written =
  let p = Strcase.lower written in
  let n = String.length p in
  let start = if n > 0 && p.[0] = '-' then 1 else 0 in
  let stop = if n > start && p.[n - 1] = ':' then n - 1 else n in
  { A.written;
    key = (if start = 0 && stop = n then p else String.sub p start (stop - start)) }

let var_key name =
  let folded = Strcase.lower name in
  match String.index_opt folded ':' with
  | None -> { A.drive = A.No_drive; scope_key = folded; folded }
  | Some i -> (
      let split drive =
        { A.drive;
          scope_key = String.sub folded (i + 1) (String.length folded - i - 1);
          folded }
      in
      match String.sub folded 0 i with
      | "env" -> split A.Env_drive
      | "global" | "script" -> split A.Global_drive
      | "local" | "private" | "variable" -> split A.Local_drive
      | _ -> { A.drive = A.Other_drive; scope_key = folded; folded })

let variable ?(splat = false) name =
  { A.var_name = name; var_splat = splat; var_key = var_key name }

let command name =
  let cmd_folded = Strcase.lower name in
  { A.cmd_name = name; cmd_folded;
    cmd_builtin = Pslex.Aliases.builtin_folded cmd_folded }
