(* How a test deobfuscates a script: through {!Deobf.Batch.run_source}, the
   one request path of the CLI, the daemon and the paper experiments.  By
   default the gate is off and there is no deadline and no output cap, so
   a test reads the pipeline's own output; [~verify:true] reads the gated
   one. *)

let run ?options ?(verify = false) ?cache src =
  Deobf.Batch.run_source ?options ?cache ~verify ~timeout_s:infinity
    ~max_output_bytes:max_int ~name:"test" src

let output ?options ?verify src = snd (run ?options ?verify src)
