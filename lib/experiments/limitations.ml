(** §V-C — the paper's own limitations, reproduced.

    Two documented failure modes:
    {ul
    {- {b loop decoders} (whitespace encoding): the decoded value is built
       by a loop, and Algorithm 1 refuses to record loop-assigned
       variables;}
    {- {b function nesting}: the recovery algorithm lives in a function and
       the obfuscated data reaches it through calls, so no single
       recoverable piece contains both.}}

    Both are limits of the paper's {e static} algorithm, so the static
    pipeline ([use_dynamic = false]) must fail the same way the paper says.
    The provenance-guided dynamic stage was added precisely to lift the
    first one: it executes the script under the sandbox, maps each loop- or
    branch-carried value back to its defining extent, and substitutes the
    verified result.  The [recovered_dynamic] column shows which cases that
    lifts — the loop decoder folds, while the function-nested decoder stays
    out of reach (the loop lives inside a callee, not a top-level region). *)

open Pscommon

type case = { name : string; script : string; payload_marker : string }

let cases () =
  let rng = Rng.of_int 4242 in
  [
    {
      name = "whitespace-encoding (loop decoder)";
      script =
        Obfuscator.Obfuscate.apply rng Obfuscator.Technique.Enc_whitespace
          "write-host hidden-payload-one";
      payload_marker = "hidden-payload-one";
    };
    {
      name = "function-nested decoder";
      script =
        "function decode($s) {\n\
        \  $out = ''\n\
        \  foreach ($c in $s.ToCharArray()) { $out += [char]([int]$c - 1) }\n\
        \  $out\n\
         }\n\
         $enc = 'xsjuf.iptu!ijeefo.qbzmpbe.uxp'\n\
         & ('ie'+'x') (decode $enc)";
      payload_marker = "hidden-payload-two";
    };
    {
      name = "straight-line control (recovers fine)";
      script = "& ('ie'+'x') ('write-host hidden'+'-payload-three')";
      payload_marker = "hidden-payload-three";
    };
  ]

type row = {
  case : string;
  recovered : bool;  (** static pipeline only — the paper's algorithm *)
  recovered_dynamic : bool;  (** full pipeline with the dynamic stage *)
  behavior_preserved : bool;
}

let run () =
  let static_options =
    { Deobf.Engine.default_options with
      recovery =
        { Deobf.Engine.default_options.Deobf.Engine.recovery with
          Deobf.Engine.use_dynamic = false } }
  in
  List.map
    (fun c ->
      let run ?options script =
        snd (Deobf.Batch.run_source ?options ~verify:true ~name:c.name script)
      in
      let static_out = run ~options:static_options c.script in
      let dynamic_out = run c.script in
      {
        case = c.name;
        recovered = Strcase.contains ~needle:c.payload_marker static_out;
        recovered_dynamic = Strcase.contains ~needle:c.payload_marker dynamic_out;
        behavior_preserved =
          Sandbox.same_network_behavior (Sandbox.run c.script)
            (Sandbox.run dynamic_out);
      })
    (cases ())

let print rows =
  Printf.printf "SS V-C: documented limitations\n";
  Printf.printf "  %-38s %10s %10s %20s\n" "Case" "static" "dynamic"
    "behaviour preserved";
  List.iter
    (fun r ->
      Printf.printf "  %-38s %10s %10s %20s\n" r.case
        (if r.recovered then "yes" else "no")
        (if r.recovered_dynamic then "yes" else "no")
        (if r.behavior_preserved then "yes" else "NO"))
    rows;
  Printf.printf
    "  (paper: loop decoders and function nesting defeat static tracing; \
     the provenance stage lifts the loop-decoder case, and the output must \
     still behave identically)\n"
