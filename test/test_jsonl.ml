(* Tests for the NDJSON line reader: every byte string our own escaper
   writes reads back unchanged, a standard encoder's escapes decode to
   UTF-8, whitespace between tokens is accepted, lookup is first match in
   document order, and malformed lines are [None]. *)

module Jsonl = Deobf.Jsonl

let check_b = Alcotest.(check bool)
let check_so = Alcotest.(check (option string))

let string_of_line line key =
  Option.bind (Jsonl.parse line) (fun t ->
      Option.bind (Jsonl.find t key) Jsonl.to_string)

let prop_escape_roundtrip =
  QCheck.Test.make ~name:"jsonl: json_string of any bytes reads back"
    ~count:500
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.char)
    (fun s ->
      string_of_line
        (Printf.sprintf "{\"k\": %s}" (Pscommon.Telemetry.json_string s))
        "k"
      = Some s)

let test_standard_escapes () =
  (* what Python's json.dumps writes for 'café 中 😀' plus \b, \f and
     an escaped solidus *)
  check_so "non-ASCII, surrogate pair, \\b \\f \\/"
    (Some "caf\xc3\xa9 \xe4\xb8\xad \xf0\x9f\x98\x80 \b\012/")
    (string_of_line
       {|{"k": "caf\u00e9 \u4E2D \ud83d\ude00 \b\f\/"}|} "k");
  check_so "unescaped UTF-8 bytes are copied" (Some "caf\xc3\xa9")
    (string_of_line "{\"k\": \"caf\xc3\xa9\"}" "k");
  check_b "unpaired high surrogate refused" true
    (Jsonl.parse {|{"k": "\ud83d"}|} = None);
  check_b "lone low surrogate refused" true
    (Jsonl.parse {|{"k": "\ude00x"}|} = None);
  check_b "raw control byte refused" true
    (Jsonl.parse "{\"k\": \"a\tb\"}" = None);
  check_b "unknown escape refused" true (Jsonl.parse {|{"k": "\q"}|} = None)

let test_whitespace () =
  let line = " {\"id\" : 3 ,\t\"op\" :\"health\" , \"v\": [ 1 , true ,null ] }\r" in
  check_so "op" (Some "health") (string_of_line line "op");
  check_b "id" true (Jsonl.int_field line "id" = Some 3);
  check_b "parsed whole" true
    (Jsonl.parse line
    = Some
        (Jsonl.Object
           [ ("id", Jsonl.Number "3"); ("op", Jsonl.String "health");
             ("v", Jsonl.Array [ Jsonl.Number "1"; Jsonl.Bool true; Jsonl.Null ]) ]))

let test_first_match () =
  (* a serve response: the top-level fields come before the report, whose
     own "status" and numbers are nested in it *)
  let line =
    {|{"id": 7, "status": "degraded", "output": "x", "report": {"file": "req-1", "status": "degraded", "wall_ms": 12.5, "verdict": "equivalent", "stats": {"cache_hits": 2}}, "trace": [{"name": "serve.request", "id": 1}]}|}
  in
  check_b "top-level id, not the trace event's" true
    (Jsonl.int_field line "id" = Some 7);
  check_so "status" (Some "degraded") (Jsonl.string_field line "status");
  check_so "nested verdict" (Some "equivalent")
    (Jsonl.string_field line "verdict");
  check_b "nested wall_ms" true (Jsonl.float_field line "wall_ms" = Some 12.5);
  check_b "twice-nested cache_hits" true
    (Jsonl.int_field line "cache_hits" = Some 2);
  check_so "inside an array" (Some "serve.request")
    (Jsonl.string_field line "name");
  (* document order: a member's value is searched before later members *)
  check_b "nested before later sibling" true
    (Jsonl.int_field {|{"a": {"k": 1}, "k": 2}|} "k" = Some 1);
  check_b "first of duplicates" true
    (Jsonl.int_field {|{"k": 1, "k": 2}|} "k" = Some 1);
  check_b "a non-string is no string" true
    (Jsonl.string_field {|{"k": 1}|} "k" = None);
  check_b "a fraction is no int" true (Jsonl.int_field {|{"k": 1.5}|} "k" = None)

let test_malformed () =
  let deep n = String.make n '[' ^ String.make n ']' in
  check_b "64 levels parse" true (Jsonl.parse (deep 64) <> None);
  check_b "65 levels refused" true (Jsonl.parse (deep 65) = None);
  check_b "an 8 MiB line of [ refused" true
    (Jsonl.parse (String.make (8 * 1024 * 1024) '[') = None);
  (* at most 2^17 values: the array itself and its elements *)
  let zeros k = "[" ^ String.concat "," (List.init k (fun _ -> "0")) ^ "]" in
  check_b "2^17 values parse" true (Jsonl.parse (zeros ((1 lsl 17) - 1)) <> None);
  check_b "one more value refused" true (Jsonl.parse (zeros (1 lsl 17)) = None);
  check_b "trailing bytes refused" true (Jsonl.parse {|{"k": 1} x|} = None);
  check_b "two values refused" true (Jsonl.parse {|{} {}|} = None);
  List.iter
    (fun line -> check_b line true (Jsonl.parse line = None))
    [ ""; "   "; "{"; {|{"k"}|}; {|{"k": }|}; {|{"k": 1,}|}; "[1,]"; "01";
      "-"; "1."; "1e"; "tru"; {|"abc|}; {|{'k': 1}|}; "this is not json" ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_escape_roundtrip;
    Alcotest.test_case "standard encoder escapes" `Quick test_standard_escapes;
    Alcotest.test_case "whitespace between tokens" `Quick test_whitespace;
    Alcotest.test_case "first match in document order" `Quick test_first_match;
    Alcotest.test_case "malformed lines are None" `Quick test_malformed;
  ]
