(* Edge-case tests for operator semantics (Ops) — the coercion corners that
   decide whether recovery results are faithful. *)

module Value = Psvalue.Value
module Ops = Pseval.Ops
module A = Psast.Ast

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let str s = Value.Str s
let int n = Value.Int n
let arr l = Value.Arr (Array.of_list l)

let test_add_coercions () =
  check_s "str+int" "a5" (Value.to_string (Ops.add (str "a") (int 5)));
  check_i "int+str" 10 (Value.to_int (Ops.add (int 5) (str "5")));
  check_b "int+bad str raises" true
    (match Ops.add (int 1) (str "xyz") with
    | exception Psvalue.Value.Conversion_error _ -> true
    | _ -> false);
  check_s "char+str" "ab" (Value.to_string (Ops.add (Value.Char 'a') (str "b")));
  check_b "float propagates" true
    (match Ops.add (int 1) (Value.Float 0.5) with
    | Value.Float f -> f = 1.5
    | _ -> false);
  check_i "array append length" 3
    (match Ops.add (arr [ int 1; int 2 ]) (int 3) with
    | Value.Arr a -> Array.length a
    | _ -> -1);
  check_i "array concat" 4
    (match Ops.add (arr [ int 1 ]) (arr [ int 2; int 3; int 4 ]) with
    | Value.Arr a -> Array.length a
    | _ -> -1);
  check_b "null+x adopts rhs type" true
    (Value.to_string (Ops.add Value.Null (str "x")) = "x")

let env = Pseval.Env.create ()

let test_multiply () =
  check_s "string replication" "ababab"
    (Value.to_string (Ops.multiply env (str "ab") (int 3)));
  check_s "replication by string count" "aa"
    (Value.to_string (Ops.multiply env (str "a") (str "2")));
  check_b "negative replication raises" true
    (match Ops.multiply env (str "a") (int (-1)) with
    | exception Ops.Op_error _ -> true
    | _ -> false);
  check_b "array replication" true
    (Ops.multiply env (arr [ int 1; int 2 ]) (int 3)
    = arr [ int 1; int 2; int 1; int 2; int 1; int 2 ])

let op_error f =
  match f () with _ -> "no error" | exception Ops.Op_error m -> m

(* a megabyte built by one allocation, not a list of a million strings;
   the caps are the evaluator's limits.  The multiply runs in a domain of
   its own, which counts only its own allocation: in the main domain, after
   the suites that ran pool domains, about one window in three also
   counted 29 148 to 151 902 minor words the multiply does not allocate
   (it allocates 8 minor and 125 002 major words), whenever a minor
   collection and the end of a major cycle fell inside the window. *)
let test_multiply_allocates_once () =
  let mb = 1_000_000 in
  let v, allocated =
    Domain.join
      (Domain.spawn (fun () ->
           let before = Gc.allocated_bytes () in
           let v = Ops.multiply env (str "ab") (int (mb / 2)) in
           (v, Gc.allocated_bytes () -. before)))
  in
  check_b "value" true (v = str (String.concat "" (List.init (mb / 2) (fun _ -> "ab"))));
  check_b (Printf.sprintf "allocated %.0f bytes" allocated) true
    (allocated <= 2.0 *. float_of_int mb);
  let with_caps bytes elements =
    Pseval.Env.create
      ~limits:
        { Pseval.Env.default_limits with
          Pseval.Env.max_string_bytes = bytes; max_collection = elements }
      ()
  in
  let small = with_caps 10 10 in
  check_s "string cap" "string too large"
    (op_error (fun () -> Ops.multiply small (str "abc") (int 4)));
  check_s "string at the cap" "abababababab"
    (Value.to_string (Ops.multiply (with_caps 12 10) (str "ab") (int 6)));
  check_s "array cap" "array too large"
    (op_error (fun () -> Ops.multiply small (arr [ int 1; int 2 ]) (int 6)));
  check_s "negative multiplier" "negative string multiplier"
    (op_error (fun () -> Ops.multiply small (str "a") (int (-1))));
  check_s "empty string, huge count" ""
    (Value.to_string (Ops.multiply env (str "") (int max_int)))

let test_divide_kinds () =
  check_b "int/int exact" true (Ops.divide (int 8) (int 2) = int 4);
  check_b "int/int inexact is float" true
    (match Ops.divide (int 7) (int 2) with Value.Float f -> f = 3.5 | _ -> false)

let test_range () =
  check_i "ascending length" 5
    (match Ops.range 1000 (int 1) (int 5) with
    | Value.Arr a -> Array.length a
    | _ -> -1);
  check_b "descending" true
    (match Ops.range 1000 (int 3) (int 1) with
    | Value.Arr [| a; b; c |] -> (a, b, c) = (int 3, int 2, int 1)
    | _ -> false);
  check_b "cap enforced" true
    (match Ops.range 10 (int 1) (int 100) with
    | exception Ops.Op_error _ -> true
    | _ -> false)

let test_indexing () =
  check_b "negative string index" true
    (Ops.index_value (str "abc") (int (-1)) = Value.Char 'c');
  check_b "array negative" true
    (Ops.index_value (arr [ int 1; int 2 ]) (int (-2)) = int 1);
  check_b "out of range null" true
    (Ops.index_value (arr [ int 1 ]) (int 9) = Value.Null);
  check_b "hash key caseless" true
    (Ops.index_value (Value.Hash [ (str "Key", int 7) ]) (str "KEY") = int 7);
  check_b "slice of string yields chars" true
    (match Ops.index_value (str "abcd") (arr [ int 0; int 2 ]) with
    | Value.Arr [| Value.Char 'a'; Value.Char 'c' |] -> true
    | _ -> false)

let test_like_wildcards () =
  check_b "star" true (Ops.like_match env ~case_sensitive:false "evil.ps1" "*.ps1");
  check_b "question" true (Ops.like_match env ~case_sensitive:false "cat" "c?t");
  check_b "anchored" false (Ops.like_match env ~case_sensitive:false "xcat" "c?t");
  check_b "case" false (Ops.like_match env ~case_sensitive:true "CAT" "cat")

let test_comparison_array_filter () =
  match Ops.comparison env A.Gt None (arr [ int 1; int 5; int 3 ]) (int 2) with
  | Value.Arr a ->
      check_i "filtered" 2 (Array.length a);
      check_b "values" true (a.(0) = int 5 && a.(1) = int 3)
  | _ -> Alcotest.fail "expected array"

let test_replace_op_behaviours () =
  check_s "regex groups" "b.a"
    (Value.to_string (Ops.replace_op env None (str "a@b") (arr [ str "(\\w)@(\\w)"; str "$2.$1" ])));
  check_s "deletion with single arg" "ac"
    (Value.to_string (Ops.replace_op env None (str "abc") (str "b")));
  check_b "applies across array lhs" true
    (match Ops.replace_op env None (arr [ str "xa"; str "xb" ]) (arr [ str "x"; str "y" ]) with
    | Value.Arr [| Value.Str "ya"; Value.Str "yb" |] -> true
    | _ -> false)

let test_join_unary_and_binary () =
  check_s "binary" "a-b" (Value.to_string (Ops.join_op (arr [ str "a"; str "b" ]) (str "-")));
  check_s "unary" "ab" (Value.to_string (Ops.unary_join (arr [ str "a"; str "b" ])));
  check_s "join scalar" "x" (Value.to_string (Ops.join_op (str "x") (str "-")))

let test_bitwise_ops () =
  check_b "band" true (Ops.bitwise A.Band (int 6) (int 3) = int 2);
  check_b "bxor strings" true (Ops.bitwise A.Bxor (str "12") (str "0x0a") = int 6)

let test_contains_in () =
  check_b "contains" true
    (Ops.contains_op ~negate:false (arr [ str "A" ]) (str "a") = Value.Bool true);
  check_b "notin" true
    (Ops.in_op ~negate:true (int 9) (arr [ int 1 ]) = Value.Bool true)

let test_type_matches () =
  check_b "int" true (Ops.type_matches "int" (int 1));
  check_b "string" true (Ops.type_matches "System.String" (str "x"));
  check_b "mismatch" false (Ops.type_matches "int" (str "x"))

let split_with_count subject pattern n =
  match Ops.split_op env None (str subject) (arr [ str pattern; int n ]) with
  | Value.Arr parts -> List.map Value.to_string (Array.to_list parts)
  | v -> [ Value.to_string v ]

let test_split_count_tail () =
  let check_l = Alcotest.(check (list string)) in
  (* the last piece is the rest of the subject, verbatim: its separators
     keep their own spelling and case *)
  check_l "regex separator run" [ "a"; "b  c" ]
    (split_with_count "a b  c" {|\s+|} 2);
  check_l "caseless literal" [ "a"; "bXc" ] (split_with_count "axbXc" "x" 2);
  check_l "count 1 is the whole subject" [ "a,b" ] (split_with_count "a,b" "," 1);
  check_l "count above the field count" [ "a"; "b" ]
    (split_with_count "a,b" "," 5);
  check_l "count 0 is unlimited" [ "a"; "b"; "c" ]
    (split_with_count "a,b,c" "," 0)

let suite =
  [
    ("split count tail", `Quick, test_split_count_tail);
    ("add coercions", `Quick, test_add_coercions);
    ("multiply", `Quick, test_multiply);
    ("multiply allocates once", `Quick, test_multiply_allocates_once);
    ("divide kinds", `Quick, test_divide_kinds);
    ("range", `Quick, test_range);
    ("indexing", `Quick, test_indexing);
    ("like wildcards", `Quick, test_like_wildcards);
    ("comparison array filter", `Quick, test_comparison_array_filter);
    ("replace op", `Quick, test_replace_op_behaviours);
    ("join", `Quick, test_join_unary_and_binary);
    ("bitwise", `Quick, test_bitwise_ops);
    ("contains/in", `Quick, test_contains_in);
    ("type matches", `Quick, test_type_matches);
  ]
