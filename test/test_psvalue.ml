(* Tests for the value model: conversions, stringification, source
   rendering, and the -f format engine. *)

module Value = Psvalue.Value

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

(* ---------- stringification ---------- *)

let test_to_string () =
  check_s "null" "" (Value.to_string Value.Null);
  check_s "true" "True" (Value.to_string (Value.Bool true));
  check_s "false" "False" (Value.to_string (Value.Bool false));
  check_s "int" "42" (Value.to_string (Value.Int 42));
  check_s "float integral" "3" (Value.to_string (Value.Float 3.0));
  check_s "float fractional" "3.5" (Value.to_string (Value.Float 3.5));
  check_s "char" "h" (Value.to_string (Value.Char 'h'));
  check_s "array space-joined" "1 2 3"
    (Value.to_string (Value.Arr [| Value.Int 1; Value.Int 2; Value.Int 3 |]));
  check_s "hash" "System.Collections.Hashtable" (Value.to_string (Value.Hash []))

(* ---------- numeric conversions ---------- *)

let test_to_int () =
  check_i "int" 5 (Value.to_int (Value.Int 5));
  check_i "string" 42 (Value.to_int (Value.Str "42"));
  check_i "hex string" 75 (Value.to_int (Value.Str "0x4B"));
  check_i "trimmed" 7 (Value.to_int (Value.Str " 7 "));
  check_i "char code" 104 (Value.to_int (Value.Char 'h'));
  check_i "bool" 1 (Value.to_int (Value.Bool true));
  check_i "null" 0 (Value.to_int Value.Null);
  check_i "float rounds" 4 (Value.to_int (Value.Float 3.6));
  check_b "bad string raises" true
    (match Value.to_int (Value.Str "nope") with
    | exception Value.Conversion_error _ -> true
    | _ -> false)

let test_to_bool () =
  check_b "empty string" false (Value.to_bool (Value.Str ""));
  check_b "nonempty string" true (Value.to_bool (Value.Str "0"));
  check_b "zero" false (Value.to_bool (Value.Int 0));
  check_b "empty array" false (Value.to_bool (Value.Arr [||]));
  check_b "singleton falsy" false (Value.to_bool (Value.Arr [| Value.Int 0 |]));
  check_b "two elements" true
    (Value.to_bool (Value.Arr [| Value.Int 0; Value.Int 0 |]))

let test_to_char () =
  check_b "code point" true (Value.to_char (Value.Int 104) = 'h');
  check_b "single char string" true (Value.to_char (Value.Str "x") = 'x');
  check_b "long string raises" true
    (match Value.to_char (Value.Str "xy") with
    | exception Value.Conversion_error _ -> true
    | _ -> false)

let test_bytes_roundtrip () =
  let data = "MZ\x90\x00binary" in
  check_s "value_to_bytes . bytes_to_value" data
    (Value.value_to_bytes (Value.bytes_to_value data))

(* ---------- loose equality / ordering ---------- *)

let test_equal_loose () =
  check_b "caseless strings" true (Value.equal_loose (Value.Str "ABC") (Value.Str "abc"));
  check_b "case sensitive opt" false
    (Value.equal_loose ~case_sensitive:true (Value.Str "ABC") (Value.Str "abc"));
  check_b "int vs numeric string" true (Value.equal_loose (Value.Int 5) (Value.Str "5"));
  check_b "string lhs coerces rhs" true (Value.equal_loose (Value.Str "5") (Value.Int 5));
  check_b "null only equals null" false (Value.equal_loose Value.Null (Value.Int 0));
  check_b "null equals null" true (Value.equal_loose Value.Null Value.Null)

let test_compare_loose () =
  check_b "int order" true (Value.compare_loose (Value.Int 1) (Value.Int 2) < 0);
  check_b "string order caseless" true
    (Value.compare_loose (Value.Str "A") (Value.Str "b") < 0);
  check_b "numeric lhs coerces" true
    (Value.compare_loose (Value.Int 10) (Value.Str "9") > 0)

(* ---------- source rendering ---------- *)

let test_to_source () =
  Alcotest.(check (option string)) "string" (Some "'hi'")
    (Value.to_source_opt (Value.Str "hi"));
  Alcotest.(check (option string)) "quote doubling" (Some "'it''s'")
    (Value.to_source_opt (Value.Str "it's"));
  Alcotest.(check (option string)) "int" (Some "42")
    (Value.to_source_opt (Value.Int 42));
  Alcotest.(check (option string)) "bool" (Some "$true")
    (Value.to_source_opt (Value.Bool true));
  Alcotest.(check (option string)) "char as cast" (Some "[char]104")
    (Value.to_source_opt (Value.Char 'h'));
  Alcotest.(check (option string)) "string array" (Some "'a','b'")
    (Value.to_source_opt (Value.Arr [| Value.Str "a"; Value.Str "b" |]));
  Alcotest.(check (option string)) "empty array" (Some "@()")
    (Value.to_source_opt (Value.Arr [||]));
  Alcotest.(check (option string)) "control chars unrepresentable" None
    (Value.to_source_opt (Value.Str "a\x01b"));
  Alcotest.(check (option string)) "objects unrepresentable" None
    (Value.to_source_opt (Value.Hash []))

let test_rendered_source_reparses () =
  List.iter
    (fun v ->
      match Value.to_source_opt v with
      | Some src ->
          check_b "valid syntax" true (Psparse.Parser.is_valid_syntax src)
      | None -> ())
    [ Value.Str "hello"; Value.Str "it's got 'quotes'"; Value.Int (-3);
      Value.Float 2.5; Value.Char 'z';
      Value.Arr [| Value.Str "x"; Value.Str "y"; Value.Str "z" |] ]

(* ---------- format engine ---------- *)

let fmt template args = Psvalue.Format_op.format template args

let test_format_basics () =
  check_s "simple" "ab" (fmt "{0}{1}" [ Value.Str "a"; Value.Str "b" ]);
  check_s "reorder" "ba" (fmt "{1}{0}" [ Value.Str "a"; Value.Str "b" ]);
  check_s "repeat" "aa" (fmt "{0}{0}" [ Value.Str "a" ]);
  check_s "literal text" "x=1." (fmt "x={0}." [ Value.Int 1 ])

let test_format_escapes () =
  check_s "double braces" "{0}" (fmt "{{0}}" []);
  check_s "mixed" "{v}" (fmt "{{{0}}}" [ Value.Str "v" ])

let test_format_alignment () =
  check_s "right align" "  x" (fmt "{0,3}" [ Value.Str "x" ]);
  check_s "left align" "x  " (fmt "{0,-3}" [ Value.Str "x" ]);
  check_s "wider than field" "xyz" (fmt "{0,2}" [ Value.Str "xyz" ])

let test_format_numeric () =
  check_s "hex" "FF" (fmt "{0:X}" [ Value.Int 255 ]);
  check_s "lowercase hex" "ff" (fmt "{0:x2}" [ Value.Int 255 ]);
  check_s "padded hex" "0F" (fmt "{0:X2}" [ Value.Int 15 ]);
  check_s "padded lowercase hex" "0f" (fmt "{0:x2}" [ Value.Int 15 ]);
  check_s "negative Int32 hex" "FFFFFFFF" (fmt "{0:X}" [ Value.Int (-1) ]);
  check_s "negative Int32 lowercase hex" "ffffff85"
    (fmt "{0:x}" [ Value.Int (-123) ]);
  check_s "Int32 minimum hex" "80000000"
    (fmt "{0:X}" [ Value.Int (-0x8000_0000) ]);
  check_s "negative Int64 hex" "FFFFFFFF7FFFFFFF"
    (fmt "{0:X}" [ Value.Int (-0x8000_0001) ]);
  check_s "decimal pad" "007" (fmt "{0:D3}" [ Value.Int 7 ])

let test_format_errors () =
  check_b "index out of range" true
    (match fmt "{3}" [ Value.Str "a" ] with
    | exception Psvalue.Format_op.Format_error _ -> true
    | _ -> false);
  check_b "unclosed" true
    (match fmt "{0" [ Value.Str "a" ] with
    | exception Psvalue.Format_op.Format_error _ -> true
    | _ -> false)

let prop_format_identity_template =
  QCheck.Test.make ~name:"format: {0} is to_string" ~count:200
    QCheck.(string_of_size Gen.(int_range 0 30))
    (fun s ->
      (* braces in the payload would be treated as format items *)
      QCheck.assume (not (String.contains s '{' || String.contains s '}'));
      fmt "{0}" [ Value.Str s ] = s)

let prop_source_roundtrips_through_eval =
  QCheck.Test.make ~name:"to_source: rendered literal evaluates back" ~count:200
    (QCheck.make
       QCheck.Gen.(
         oneof
           [ map (fun s -> Value.Str s) (string_size (int_range 0 20));
             map (fun n -> Value.Int n) small_int ]))
    (fun v ->
      match Value.to_source_opt v with
      | None -> true
      | Some src -> (
          let env = Pseval.Env.create () in
          match Pseval.Interp.invoke_piece env src with
          | Ok v' -> Value.to_string v' = Value.to_string v
          | Error _ -> false))

let suite =
  [
    ("to_string", `Quick, test_to_string);
    ("to_int", `Quick, test_to_int);
    ("to_bool", `Quick, test_to_bool);
    ("to_char", `Quick, test_to_char);
    ("bytes roundtrip", `Quick, test_bytes_roundtrip);
    ("equal_loose", `Quick, test_equal_loose);
    ("compare_loose", `Quick, test_compare_loose);
    ("to_source", `Quick, test_to_source);
    ("rendered source reparses", `Quick, test_rendered_source_reparses);
    ("format basics", `Quick, test_format_basics);
    ("format escapes", `Quick, test_format_escapes);
    ("format alignment", `Quick, test_format_alignment);
    ("format numeric", `Quick, test_format_numeric);
    ("format errors", `Quick, test_format_errors);
    QCheck_alcotest.to_alcotest prop_format_identity_template;
    QCheck_alcotest.to_alcotest prop_source_roundtrips_through_eval;
  ]
