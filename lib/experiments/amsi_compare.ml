(** §V-B — comparison with AMSI.

    The paper runs its 100-sample set on a VM and inspects the final scripts
    AMSI captures, concluding that Invoke-Deobfuscation has similar
    deobfuscation ability on invoke-reaching code but also recovers pieces
    AMSI never sees (anything not handed to the engine), and that simple
    concatenation ('Amsi'+'Utils') bypasses AMSI's string matching. *)

type row = {
  tool : string;
  key_info_total : int;
  invoked_layers_seen : int;  (** samples where at least one layer surfaced *)
  non_invoked_recovered : int;
      (** samples where key info was recovered although the sample never
          invokes it (no IEX reaches it) *)
}

let run (set : Effectiveness.sample_set) =
  let samples = set.Effectiveness.samples in
  let grounds = set.Effectiveness.ground_truths in
  let eval_tool tool =
    let key_total = ref 0 and layered = ref 0 and non_invoked = ref 0 in
    List.iter2
      (fun sample ground ->
        let input = sample.Corpus.Generator.obfuscated in
        let out = (tool.Baselines.Tool.deobfuscate input).Baselines.Tool.result in
        let got =
          Keyinfo.intersection ~ground_truth:ground (Keyinfo.extract out)
        in
        key_total := !key_total + Keyinfo.count got;
        if not (String.equal (String.trim out) (String.trim input)) then
          incr layered;
        (* a sample whose script never reaches IEX: AMSI's blind spot *)
        let amsi_capture = Baselines.Amsi.scan input in
        if List.length amsi_capture.Baselines.Amsi.layers <= 1 && Keyinfo.count got > 0
        then incr non_invoked)
      samples grounds;
    {
      tool = tool.Baselines.Tool.name;
      key_info_total = !key_total;
      invoked_layers_seen = !layered;
      non_invoked_recovered = !non_invoked;
    }
  in
  [ eval_tool Baselines.Amsi.tool; eval_tool Baselines.All_tools.invoke_deobfuscation ]

let bypass_demo () =
  (* the paper's example: 'AmsiUtils' detection bypassed by concatenation.
     AMSI string-matches layers; the concatenated form never appears as a
     layer because it is computed, not invoked. *)
  let flagged = "AmsiUtils" in
  let script = "$a = 'Amsi'+'Utils'\n$a | Out-Null" in
  let capture = Baselines.Amsi.scan script in
  let amsi_sees =
    List.exists
      (fun layer -> Pscommon.Strcase.contains ~needle:flagged layer)
      capture.Baselines.Amsi.layers
  in
  let _, deobf = Deobf.Batch.run_source ~verify:true ~name:"bypass" script in
  let we_see = Pscommon.Strcase.contains ~needle:flagged deobf in
  (amsi_sees, we_see)

let print rows =
  Printf.printf "SS V-B: comparison with AMSI (100-sample set)\n";
  Printf.printf "  %-22s %10s %14s %22s\n" "Tool" "key info" "changed/seen"
    "non-invoked recovered";
  List.iter
    (fun r ->
      Printf.printf "  %-22s %10d %14d %22d\n" r.tool r.key_info_total
        r.invoked_layers_seen r.non_invoked_recovered)
    rows;
  let amsi_sees, we_see = bypass_demo () in
  Printf.printf
    "  'Amsi'+'Utils' concatenation: AMSI sees the flagged string: %b; \
     Invoke-Deobfuscation recovers it: %b\n"
    amsi_sees we_see;
  Printf.printf
    "  (paper: similar ability on invoked code; AMSI misses pieces that are \
     never invoked)\n"
