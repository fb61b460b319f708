(** Commands that recovery must never execute (paper §III-B2).

    Recoverable pieces sometimes contain commands unrelated to the recovery
    process — network connections, sleeps, reboots.  Skipping pieces that
    mention them both keeps recovery safe and makes deobfuscation time
    stable (the paper credits the blocklist for Fig 6's flat runtimes). *)

open Pscommon

let commands =
  [
    (* network *)
    "invoke-webrequest"; "invoke-restmethod"; "iwr"; "irm"; "curl"; "wget";
    "start-bitstransfer"; "test-connection"; "test-netconnection";
    "downloadstring"; "downloadfile"; "downloaddata"; "openread";
    (* timing / machine state *)
    "start-sleep"; "sleep"; "restart-computer"; "stop-computer";
    "restart-service"; "suspend-computer";
    (* processes *)
    "start-process"; "saps"; "start"; "stop-process"; "kill"; "start-job";
    "invoke-item";
    (* persistence / filesystem writes *)
    "new-itemproperty"; "set-itemproperty"; "remove-item"; "remove-itemproperty";
    "set-content"; "add-content"; "out-file"; "new-service"; "set-service";
    "register-scheduledtask"; "new-scheduledtaskaction";
    (* anti-analysis *)
    "get-wmiobject"; "get-ciminstance"; "get-process"; "add-mppreference";
    "set-mppreference";
  ]

let set =
  List.fold_left (fun acc c -> Strcase.Set.add c acc) Strcase.Set.empty commands

let is_blocked name = Strcase.Set.mem name set

let names_blocked_command toks =
  List.exists
    (fun t ->
      match t.Pslex.Token.kind with
      | Pslex.Token.Command | Pslex.Token.Member ->
          is_blocked t.Pslex.Token.content
      | _ -> false)
    toks

(** True when the piece mentions a blocked command or method, checked on
    tokens so string contents don't trigger it. *)
let mentions_blocked_command piece =
  match Pslex.Lexer.tokenize piece with
  | Error _ -> true (* un-lexable pieces are never executed *)
  | Ok toks -> names_blocked_command toks
