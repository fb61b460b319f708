(* Tests for the regex engine used by baselines and -match/-replace/-split. *)

open Regexen

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let matches pat subject = Regex.is_match (Regex.compile pat) subject

let first_match pat subject =
  match Regex.find (Regex.compile pat) subject with
  | Some m -> Regex.matched_text subject m
  | None -> Alcotest.fail ("no match for " ^ pat)

let test_literals () =
  check_b "literal" true (matches "abc" "xxabcxx");
  check_b "no match" false (matches "abc" "ab c");
  check_b "caseless default" true (matches "ABC" "xabcx");
  check_b "case sensitive opt" false
    (Regex.is_match (Regex.compile ~case_insensitive:false "ABC") "abc")

let test_classes () =
  check_s "digit class" "42" (first_match {|\d+|} "a42b");
  check_s "word class" "foo_1" (first_match {|\w+|} " foo_1 ");
  check_s "negated" "xyz" (first_match "[^0-9]+" "12xyz3");
  check_s "range" "cab" (first_match "[a-c]+" "zcabz");
  check_b "class with escape" true (matches {|[\d,]+|} "1,2");
  check_b "literal dash last" true (matches "[a-]+" "a-a")

let test_quantifiers () =
  check_s "star greedy" "aaa" (first_match "a*" "aaab");
  check_s "plus" "bb" (first_match "b+" "abbc");
  check_s "option" "color" (first_match "colou?r" "color");
  check_s "exact count" "aaa" (first_match "a{3}" "aaaa");
  check_s "range count" "aaaa" (first_match "a{2,4}" "aaaaa");
  check_s "open range" "aaaaa" (first_match "a{2,}" "aaaaa");
  check_s "lazy" "\"a\"" (first_match "\".*?\"" "\"a\" and \"b\"");
  check_b "brace literal when not quantifier" true (matches "a{x}" "a{x}")

let test_anchors () =
  check_b "bol" true (matches "^abc" "abc def");
  check_b "bol fail" false (matches "^def" "abc def");
  check_b "eol" true (matches "def$" "abc def");
  check_b "word boundary" true (matches {|\bcat\b|} "a cat sat");
  check_b "word boundary fail" false (matches {|\bcat\b|} "concatenate");
  check_b "multiline bol" true (matches "^second" "first\nsecond")

let test_alternation_groups () =
  check_s "alt" "dog" (first_match "cat|dog" "a dog");
  check_s "group" "abab" (first_match "(ab)+" "xababy");
  check_b "noncapture" true (matches "(?:ab)+c" "ababc");
  let m = Option.get (Regex.find (Regex.compile "(a+)(b+)") "xaabbby") in
  Alcotest.(check (option string)) "group1" (Some "aa") (Regex.group_text "xaabbby" m 1);
  Alcotest.(check (option string)) "group2" (Some "bbb") (Regex.group_text "xaabbby" m 2)

let test_backreference () =
  check_b "backref" true (matches {|(ab)\1|} "xabab");
  check_b "backref caseless" true (matches {|(ab)\1|} "xabAB");
  check_b "backref fail" false (matches {|(ab)\1|} "abac")

let test_escapes () =
  check_b "hex escape" true (matches {|\x41|} "A");
  check_b "newline" true (matches {|a\nb|} "a\nb");
  check_b "escaped dot" false (matches {|a\.b|} "axb");
  check_b "escaped metachars" true (matches {|\(\)\[\]\{\}\*\+\?|} "()[]{}*+?")

let test_find_all () =
  let r = Regex.compile {|\d+|} in
  let ms = Regex.find_all r "a1b22c333" in
  check_i "count" 3 (List.length ms);
  Alcotest.(check (list string)) "texts" [ "1"; "22"; "333" ]
    (List.map (fun m -> Regex.matched_text "a1b22c333" m) ms)

let test_find_all_empty_matches_terminate () =
  let r = Regex.compile "x*" in
  let ms = Regex.find_all r "aaa" in
  check_b "terminates" true (List.length ms <= 4)

let test_replace () =
  let r = Regex.compile {|(\w+)@(\w+)|} in
  check_s "group template" "b.a" (Regex.replace r ~template:"$2.$1" "a@b");
  check_s "whole match" "<x1>" (Regex.replace (Regex.compile {|\w+|}) ~template:"<$&>" "x1");
  check_s "dollar escape" "$" (Regex.replace (Regex.compile "a") ~template:"$$" "a");
  check_s "braced group" "B" (Regex.replace (Regex.compile "(a)") ~template:"B" "a")

let test_replace_f () =
  let r = Regex.compile {|\d+|} in
  let out =
    Regex.replace_f r "a2b10"
      ~f:(fun subj m -> string_of_int (int_of_string (Regex.matched_text subj m) * 2))
  in
  check_s "computed" "a4b20" out

let test_split () =
  Alcotest.(check (list string)) "split basic" [ "a"; "b"; "c" ]
    (Regex.split (Regex.compile ",") "a,b,c");
  Alcotest.(check (list string)) "empty fields" [ "a"; ""; "b" ]
    (Regex.split (Regex.compile ",") "a,,b");
  Alcotest.(check (list string)) "no match" [ "abc" ]
    (Regex.split (Regex.compile ",") "abc");
  Alcotest.(check (list string)) "leading" [ ""; "a" ]
    (Regex.split (Regex.compile ",") ",a")

let test_quote () =
  let meta = "a.b*c(d)" in
  check_b "quoted matches itself" true (matches (Regex.quote meta) meta);
  check_b "quoted does not wildcard" false (matches (Regex.quote "a.c") "abc")

let test_parse_errors () =
  List.iter
    (fun pat ->
      check_b ("rejects " ^ pat) true
        (match Regex.compile_opt pat with Error _ -> true | Ok _ -> false))
    [ "("; ")"; "[abc"; "*"; "a(?=b)"; "\\" ]

let test_baseline_patterns () =
  (* patterns the baseline tools actually use *)
  check_s "concat merge" "'ab'"
    (Regex.replace (Regex.compile {|'([^']*)'\s*\+\s*'([^']*)'|}) ~template:"'$1$2'"
       "'a' + 'b'");
  check_b "iex detect" true (matches {|\biex\b|} "cmd | IEX");
  check_b "url" true (matches {|https?://[a-z0-9\.\-]+/|} "GET https://evil.example.com/x")

let prop_quote_always_matches_self =
  QCheck.Test.make ~name:"regex: quoted literal matches itself" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 20))
    (fun s ->
      match Regex.compile_opt (Regex.quote s) with
      | Ok r -> s = "" || Regex.is_match r s
      | Error _ -> false)

let prop_split_rejoin =
  QCheck.Test.make ~name:"regex: concat of split parts = original minus seps"
    ~count:300
    QCheck.(string_of_size Gen.(int_range 0 30))
    (fun s ->
      let parts = Regex.split (Regex.compile ",") s in
      String.concat "" parts = String.concat "" (String.split_on_char ',' s))

(* Differential check of the literal scan: a pattern made only of plain
   characters takes the direct scan (a byte scan when it is one
   character); wrapped as [(?:…)] the same pattern takes the backtracking
   matcher.  Every entry point must agree, and a split must charge what
   the interface says a literal scan charges.  Half the patterns are one
   character, so the count is twice what one kind of pattern needs. *)

(* one-character separators, with and without case ("\t" is PowerShell's
   `t) *)
let separator_gen = QCheck.Gen.oneofl [ "-"; ","; "~"; ":"; "\t"; "x"; "X" ]

let literal_gen =
  QCheck.Gen.(
    frequency
      [ (1, separator_gen);
        ( 1,
          map (String.concat "")
            (list_size (int_range 1 4)
               (oneofl [ ","; "-"; "~"; ":"; "\t"; "\\t"; "a"; "B"; "x"; "\\." ])) ) ])

(* single characters (separators among them, so edge fields and adjacent
   separators are empty) and runs of filler long enough for a search to
   charge whole batches of steps *)
let subject_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 24)
         (oneof
            [ map (String.make 1)
                (oneofl [ ','; '-'; '~'; ':'; '\t'; 'a'; 'A'; 'b'; 'B'; 'x'; 'X'; '.' ]);
              string_size ~gen:(oneofl [ 'a'; 'b'; '7'; '.' ]) (int_range 0 60) ])))

(* The steps a literal split charges: one per two offsets each search
   scans, from where it starts (0, then the end of the previous match) to
   the match or the end of the subject; after [limit] - 1 matches no search
   is made.  The matches are the backtracking matcher's. *)
let literal_split_steps gen ~limit subject =
  let n = String.length subject in
  let rec go start count steps = function
    | _ when count = limit - 1 -> steps
    | [] -> steps + ((n - start) / 2)
    | (m : Regex.match_result) :: rest ->
        go m.Regex.m_stop (count + 1) (steps + ((m.Regex.m_start - start) / 2)) rest
  in
  go 0 0 0 (Regex.find_all gen subject)

(* what a run reports to [charge]: its steps in whole batches of 64 *)
let charged run =
  let total = ref 0 in
  ignore (run (fun n -> total := !total + n));
  !total

let prop_literal_scan_matches_backtracker =
  QCheck.Test.make ~name:"regex: literal scan = backtracking matcher" ~count:1000
    QCheck.(
      make
        ~print:(fun (p, s, ci, t, k) ->
          Printf.sprintf "pattern %S subject %S ci=%b template %S limit %d" p s ci t k)
        Gen.(
          tup5 literal_gen subject_gen bool
            (oneofl [ ""; "_"; "<$&>"; "$$"; "[$1]"; "${0}" ])
            (int_range 0 4)))
    (fun (pat, subject, case_insensitive, template, limit) ->
      (* [case_insensitive] false is -csplit *)
      let lit = Regex.compile ~case_insensitive pat in
      let gen = Regex.compile ~case_insensitive ("(?:" ^ pat ^ ")") in
      Regex.find lit subject = Regex.find gen subject
      && Regex.find ~start:limit lit subject = Regex.find ~start:limit gen subject
      && Regex.find_all lit subject = Regex.find_all gen subject
      && Regex.split lit subject = Regex.split gen subject
      && Regex.split ~limit lit subject = Regex.split ~limit gen subject
      && charged (fun charge -> Regex.split ~limit ~charge lit subject)
         = (literal_split_steps gen ~limit subject lsr 6) lsl 6
      && Regex.replace lit ~template subject = Regex.replace gen ~template subject)

let suite =
  [
    ("literals", `Quick, test_literals);
    ("classes", `Quick, test_classes);
    ("quantifiers", `Quick, test_quantifiers);
    ("anchors", `Quick, test_anchors);
    ("alternation/groups", `Quick, test_alternation_groups);
    ("backreference", `Quick, test_backreference);
    ("escapes", `Quick, test_escapes);
    ("find_all", `Quick, test_find_all);
    ("find_all empty termination", `Quick, test_find_all_empty_matches_terminate);
    ("replace", `Quick, test_replace);
    ("replace_f", `Quick, test_replace_f);
    ("split", `Quick, test_split);
    ("quote", `Quick, test_quote);
    ("parse errors", `Quick, test_parse_errors);
    ("baseline patterns", `Quick, test_baseline_patterns);
    QCheck_alcotest.to_alcotest prop_quote_always_matches_self;
    QCheck_alcotest.to_alcotest prop_split_rejoin;
    QCheck_alcotest.to_alcotest prop_literal_scan_matches_backtracker;
  ]
