(* cmdlet, aliases — the subset of `Get-Alias` output that shows up in wild
   obfuscated scripts, plus every cmdlet the interpreter implements. *)
let table =
  [
    ("Invoke-Expression", [ "iex" ]);
    ("Invoke-WebRequest", [ "iwr"; "curl"; "wget" ]);
    ("Invoke-RestMethod", [ "irm" ]);
    ("Invoke-Command", [ "icm" ]);
    ("Invoke-Item", [ "ii" ]);
    ("Get-Content", [ "gc"; "cat"; "type" ]);
    ("Set-Content", [ "sc" ]);
    ("Add-Content", [ "ac" ]);
    ("Get-ChildItem", [ "gci"; "ls"; "dir" ]);
    ("Get-Item", [ "gi" ]);
    ("New-Item", [ "ni" ]);
    ("Remove-Item", [ "ri"; "rm"; "rmdir"; "del"; "erase"; "rd" ]);
    ("Copy-Item", [ "cpi"; "cp"; "copy" ]);
    ("Move-Item", [ "mi"; "mv"; "move" ]);
    ("Rename-Item", [ "rni"; "ren" ]);
    ("Get-Location", [ "gl"; "pwd" ]);
    ("Set-Location", [ "sl"; "cd"; "chdir" ]);
    ("Write-Output", [ "echo"; "write" ]);
    ("Where-Object", [ "where"; "?" ]);
    ("ForEach-Object", [ "foreach"; "%" ]);
    ("Select-Object", [ "select" ]);
    ("Sort-Object", [ "sort" ]);
    ("Measure-Object", [ "measure" ]);
    ("Compare-Object", [ "compare"; "diff" ]);
    ("Group-Object", [ "group" ]);
    ("Get-Member", [ "gm" ]);
    ("Get-Process", [ "gps"; "ps" ]);
    ("Stop-Process", [ "spps"; "kill" ]);
    ("Start-Process", [ "saps"; "start" ]);
    ("Get-Service", [ "gsv" ]);
    ("Start-Service", [ "sasv" ]);
    ("Stop-Service", [ "spsv" ]);
    ("Get-History", [ "ghy"; "h"; "history" ]);
    ("Get-Command", [ "gcm" ]);
    ("Get-Alias", [ "gal" ]);
    ("Set-Alias", [ "sal" ]);
    ("New-Alias", [ "nal" ]);
    ("Get-Variable", [ "gv" ]);
    ("Set-Variable", [ "sv"; "set" ]);
    ("New-Variable", [ "nv" ]);
    ("Remove-Variable", [ "rv" ]);
    ("Clear-Variable", [ "clv" ]);
    ("Clear-Host", [ "cls"; "clear" ]);
    ("Out-Host", [ "oh" ]);
    ("Out-Printer", [ "lp" ]);
    ("Format-List", [ "fl" ]);
    ("Format-Table", [ "ft" ]);
    ("Format-Wide", [ "fw" ]);
    ("Format-Custom", [ "fc" ]);
    ("Get-Help", [ "man"; "help" ]);
    ("Get-WmiObject", [ "gwmi" ]);
    ("Invoke-WmiMethod", [ "iwmi" ]);
    ("Start-Sleep", [ "sleep" ]);
    ("Start-Job", [ "sajb" ]);
    ("Receive-Job", [ "rcjb" ]);
    ("Get-Job", [ "gjb" ]);
    ("Select-String", [ "sls" ]);
    ("Tee-Object", [ "tee" ]);
    ("Write-Host", []);
    ("Out-Null", []);
    ("Out-String", []);
    ("Out-File", []);
    ("New-Object", []);
    ("Get-Date", []);
    ("Get-Random", []);
    ("Get-Host", []);
    ("Add-Type", []);
    ("Test-Path", []);
    ("Join-Path", []);
    ("Split-Path", []);
    ("ConvertTo-SecureString", []);
    ("ConvertFrom-SecureString", []);
    ("Restart-Computer", []);
    ("Stop-Computer", []);
    ("New-ItemProperty", []);
    ("Set-ItemProperty", []);
    ("Get-ItemProperty", []);
    ("Invoke-Deobfuscation", []);
  ]

open Pscommon

let alias_to_cmdlet =
  List.fold_left
    (fun acc (cmdlet, aliases) ->
      List.fold_left (fun acc a -> Strcase.Map.add a cmdlet acc) acc aliases)
    Strcase.Map.empty table

let cmdlet_index =
  List.fold_left
    (fun acc (cmdlet, aliases) -> Strcase.Map.add cmdlet (cmdlet, aliases) acc)
    Strcase.Map.empty table

let resolve name = Strcase.Map.find_opt name alias_to_cmdlet

(* folded alias -> folded cmdlet: a hash lookup, no caseless tree walk *)
let folded_builtins =
  let t = Hashtbl.create 256 in
  Strcase.Map.iter
    (fun alias cmdlet ->
      Hashtbl.replace t (Strcase.lower alias) (Strcase.lower cmdlet))
    alias_to_cmdlet;
  t

let builtin_folded folded =
  match Hashtbl.find folded_builtins folded with
  | cmdlet -> cmdlet
  | exception Not_found -> folded
let is_alias name = Strcase.Map.mem name alias_to_cmdlet

let aliases_of cmdlet =
  match Strcase.Map.find_opt cmdlet cmdlet_index with
  | Some (_, aliases) -> aliases
  | None -> []

let canonical_case name =
  match Strcase.Map.find_opt name cmdlet_index with
  | Some (canonical, _) -> Some canonical
  | None -> None
