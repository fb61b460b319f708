(** The five tools of the paper's comparison, in its ordering. *)

(* The tool as it ships: the CLI's request path with the verify gate on and
   one piece cache for the process, whose hits return what a miss would. *)
let cache = Deobf.Recover.Cache.create ()

let invoke_deobfuscation =
  {
    Tool.name = "Invoke-Deobfuscation";
    deobfuscate =
      (fun script ->
        Tool.plain
          (snd
             (Deobf.Batch.run_source ~cache ~verify:true ~name:"sample" script)));
  }

(* every compared tool runs guarded: one hostile sample degrades that
   tool's result, never the comparison run *)
let baselines =
  List.map
    (fun t -> Tool.guard t)
    [ Psdecode.tool; Powerdrive.tool; Powerdecode.tool; Li_etal.tool ]

let all = baselines @ [ Tool.guard invoke_deobfuscation ]

let by_name name =
  List.find_opt (fun t -> Pscommon.Strcase.equal t.Tool.name name) all
