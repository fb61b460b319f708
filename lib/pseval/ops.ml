(** Operator semantics.

    PowerShell converts the right operand to the left operand's type, which
    is what makes ['a' + 1 = "a1"] but [1 + 'a'] an error — obfuscation
    recovery depends on getting these coercions right. *)

open Psvalue
module A = Psast.Ast

exception Op_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Op_error s)) fmt

let wildcard_to_regex pattern =
  let buf = Buffer.create (String.length pattern + 8) in
  Buffer.add_char buf '^';
  String.iter
    (fun c ->
      match c with
      | '*' -> Buffer.add_string buf ".*"
      | '?' -> Buffer.add_char buf '.'
      | '\\' | '^' | '$' | '.' | '|' | '+' | '(' | ')' | '[' | ']' | '{' | '}' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
      | c -> Buffer.add_char buf c)
    pattern;
  Buffer.add_char buf '$';
  Buffer.contents buf

let compile_regex ?(case_sensitive = false) pattern =
  match Regexen.Regex.compile_opt ~case_insensitive:(not case_sensitive) pattern with
  | Ok r -> r
  | Error msg -> fail "invalid regex %S: %s" pattern msg

(* ---------- add / arithmetic ---------- *)

let rec add a b =
  match a with
  | Value.Str s -> Value.Str (s ^ Value.to_string b)
  | Value.Char c -> Value.Str (String.make 1 c ^ Value.to_string b)
  | Value.Int n -> (
      match b with
      | Value.Float _ -> Value.Float (float_of_int n +. Value.to_float b)
      | _ -> Value.Int (n + Value.to_int b))
  | Value.Float f -> Value.Float (f +. Value.to_float b)
  | Value.Arr xs -> Value.Arr (Array.append xs (Value.array_of_list (Value.to_list b)))
  | Value.Hash pairs -> (
      match b with
      | Value.Hash more -> Value.Hash (pairs @ more)
      | _ -> fail "cannot add %s to a hashtable" (Value.type_name b))
  | Value.Null -> (
      match b with Value.Null -> Value.Null | _ -> add (neutral_for b) b)
  | Value.Bool _ | Value.Script_block _ | Value.Secure_string _ | Value.Obj _ ->
      fail "operator '+' not supported on %s" (Value.type_name a)

and neutral_for = function
  | Value.Str _ | Value.Char _ -> Value.Str ""
  | Value.Int _ -> Value.Int 0
  | Value.Float _ -> Value.Float 0.0
  | Value.Arr _ -> Value.Arr [||]
  | v -> v

(* [src] ([len] long) [n] times over in [dst]: each blit doubles the copies *)
let repeat blit src len n dst =
  if len * n > 0 then blit src 0 dst 0 len;
  let filled = ref len in
  while !filled < len * n do
    blit dst 0 dst !filled (min !filled ((len * n) - !filled));
    filled := 2 * !filled
  done;
  dst

(* [n * len > cap], without overflowing *)
let over_cap cap n len = n > 0 && len > cap / n

let multiply (env : Env.t) a b =
  match a with
  | Value.Str s ->
      let n = Value.to_int b and len = String.length s in
      if n < 0 then fail "negative string multiplier"
      else if over_cap env.limits.max_string_bytes n len then
        fail "string too large"
      else
        let src = Bytes.unsafe_of_string s in
        Value.Str (Bytes.unsafe_to_string (repeat Bytes.blit src len n (Bytes.create (len * n))))
  | Value.Int n -> (
      match b with
      | Value.Float _ -> Value.Float (float_of_int n *. Value.to_float b)
      | _ -> Value.Int (n * Value.to_int b))
  | Value.Float f -> Value.Float (f *. Value.to_float b)
  | Value.Arr xs ->
      let n = Value.to_int b and len = Array.length xs in
      if n < 0 || over_cap env.limits.max_collection n len then
        fail "array too large"
      else Value.Arr (repeat Array.blit xs len n (Array.make (len * n) Value.Null))
  | _ -> fail "operator '*' not supported on %s" (Value.type_name a)

let arith_int_like a = match a with Value.Float _ -> false | _ -> true

let subtract a b =
  if arith_int_like a && arith_int_like b then Value.Int (Value.to_int a - Value.to_int b)
  else Value.Float (Value.to_float a -. Value.to_float b)

let divide a b =
  let fa = Value.to_float a and fb = Value.to_float b in
  if fb = 0.0 then fail "division by zero"
  else
    let q = fa /. fb in
    if arith_int_like a && arith_int_like b && Float.is_integer q then
      Value.Int (int_of_float q)
    else Value.Float q

let modulo a b =
  let ib = Value.to_int b in
  if ib = 0 then fail "division by zero" else Value.Int (Value.to_int a mod ib)

(* ---------- comparison with array-filter semantics ---------- *)

let scalar_compare_op op ~case_sensitive a b =
  let c = Value.compare_loose ~case_sensitive a b in
  match op with
  | A.Gt -> c > 0
  | A.Ge -> c >= 0
  | A.Lt -> c < 0
  | A.Le -> c <= 0
  | _ -> assert false

let range env_cap a b =
  let lo = Value.to_int a and hi = Value.to_int b in
  let len = abs (hi - lo) + 1 in
  if len > env_cap then fail "range too large (%d elements)" len
  else if lo <= hi then Value.Arr (Value.init_array len (fun i -> Value.of_int (lo + i)))
  else Value.Arr (Value.init_array len (fun i -> Value.of_int (lo - i)))

(* regex work is charged to [env]'s step budget while it runs *)
let like_match env ~case_sensitive subject pattern =
  let r = compile_regex ~case_sensitive (wildcard_to_regex pattern) in
  Regexen.Regex.is_match ~charge:(Env.charge_matcher env) r subject

(* Comparison operators filter when LHS is an array (PowerShell semantics):
   @(1,2,3) -eq 2  →  @(2). *)
let comparison env op sensitivity a b =
  let case_sensitive = sensitivity = Some true in
  let test x =
    match op with
    | A.Eq -> Value.equal_loose ~case_sensitive x b
    | A.Ne -> not (Value.equal_loose ~case_sensitive x b)
    | A.Gt | A.Ge | A.Lt | A.Le -> scalar_compare_op op ~case_sensitive x b
    | A.Like -> like_match env ~case_sensitive (Value.to_string x) (Value.to_string b)
    | A.Notlike ->
        not (like_match env ~case_sensitive (Value.to_string x) (Value.to_string b))
    | A.Match ->
        Regexen.Regex.is_match ~charge:(Env.charge_matcher env)
          (compile_regex ~case_sensitive (Value.to_string b))
          (Value.to_string x)
    | A.Notmatch ->
        not
          (Regexen.Regex.is_match ~charge:(Env.charge_matcher env)
             (compile_regex ~case_sensitive (Value.to_string b))
             (Value.to_string x))
    | _ -> assert false
  in
  match a with
  | Value.Arr xs ->
      Value.Arr (Value.array_of_list (List.filter test (Array.to_list xs)))
  | _ -> Value.Bool (test a)

let replace_op env sensitivity a b =
  let case_sensitive = sensitivity = Some true in
  let pattern, replacement =
    match b with
    | Value.Arr [| p; r |] -> (Value.to_string p, Value.to_string r)
    | Value.Arr [| p |] -> (Value.to_string p, "")
    | v -> (Value.to_string v, "")
  in
  let r = compile_regex ~case_sensitive pattern in
  let charge = Env.charge_matcher env in
  let apply s = Regexen.Regex.replace ~charge r ~template:replacement s in
  match a with
  | Value.Arr xs -> Value.Arr (Value.map_array (fun x -> Value.Str (apply (Value.to_string x))) xs)
  | v -> Value.Str (apply (Value.to_string v))

let split_op env sensitivity a b =
  let case_sensitive = sensitivity = Some true in
  (* '-split pattern,count' limits the number of pieces; the last piece is
     the rest of the subject, separators and all *)
  let pattern, limit =
    match b with
    | Value.Arr (arr : Value.t array) when Array.length arr >= 2 ->
        (Value.to_string arr.(0), Value.to_int arr.(1))
    | Value.Arr arr when Array.length arr > 0 -> (Value.to_string arr.(0), 0)
    | v -> (Value.to_string v, 0)
  in
  let r = compile_regex ~case_sensitive pattern in
  let charge = Env.charge_matcher env in
  let split_one v =
    Regexen.Regex.split_map ~limit ~charge
      ~f:(fun s -> Value.Str s)
      r (Value.to_string v)
  in
  (* applied to an array, -split splits each element and flattens — chained
     splits ('x' -split 'a' -split 'b') rely on this *)
  match a with
  | Value.Arr xs -> Value.Arr (Array.concat (List.map split_one (Array.to_list xs)))
  | v -> Value.Arr (split_one v)

let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* unary -split: split on runs of whitespace, dropping empties — the
   maximal runs of other characters, counted and then cut into the array *)
let unary_split a =
  let s = Value.to_string a in
  let n = String.length s in
  let fields = ref 0 in
  for i = 0 to n - 1 do
    if (not (is_blank s.[i])) && (i = 0 || is_blank s.[i - 1]) then incr fields
  done;
  let out = Array.make !fields Value.Null in
  let k = ref 0 and start = ref (-1) in
  for i = 0 to n do
    if i < n && not (is_blank s.[i]) then (if !start < 0 then start := i)
    else if !start >= 0 then begin
      out.(!k) <- Value.Str (String.sub s !start (i - !start));
      incr k;
      start := -1
    end
  done;
  Value.Arr out

let join_op a b =
  let sep = Value.to_string b in
  match a with
  | Value.Arr xs ->
      (* straight from the array into one buffer: characters are appended
         as characters, not as one-character strings *)
      let buf = Buffer.create (Array.length xs * (1 + String.length sep)) in
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf sep;
          match x with
          | Value.Char c -> Buffer.add_char buf c
          | Value.Str s -> Buffer.add_string buf s
          | x -> Buffer.add_string buf (Value.to_string x))
        xs;
      Value.Str (Buffer.contents buf)
  | Value.Null -> Value.Str ""
  | v -> Value.Str (Value.to_string v)

let unary_join a = join_op a (Value.Str "")

let contains_op ?(case_sensitive = false) ~negate a b =
  let hit =
    List.exists (fun x -> Value.equal_loose ~case_sensitive x b) (Value.to_list a)
  in
  Value.Bool (if negate then not hit else hit)

let in_op ?(case_sensitive = false) ~negate a b =
  let hit =
    List.exists (fun x -> Value.equal_loose ~case_sensitive x a) (Value.to_list b)
  in
  Value.Bool (if negate then not hit else hit)

let type_matches type_name v =
  let tn = Pscommon.Strcase.lower type_name in
  let actual = Pscommon.Strcase.lower (Value.type_name v) in
  let aliases =
    match tn with
    | "int" | "int32" -> [ "system.int32" ]
    | "long" | "int64" -> [ "system.int64" ]
    | "string" -> [ "system.string" ]
    | "char" -> [ "system.char" ]
    | "bool" | "boolean" -> [ "system.boolean" ]
    | "double" | "float" -> [ "system.double" ]
    | "array" | "object[]" -> [ "system.object[]" ]
    | "hashtable" -> [ "system.collections.hashtable" ]
    | "scriptblock" -> [ "system.management.automation.scriptblock" ]
    | "securestring" -> [ "system.security.securestring" ]
    | t -> [ t; "system." ^ t ]
  in
  List.mem actual aliases

let bitwise op a b =
  let x = Value.to_int a and y = Value.to_int b in
  match op with
  | A.Band -> Value.of_int (x land y)
  | A.Bor -> Value.of_int (x lor y)
  | A.Bxor -> Value.of_int (x lxor y)
  | A.Shl -> Value.Int (x lsl (y land 63))
  | A.Shr -> Value.Int (x asr (y land 63))
  | _ -> assert false

let logical op a b =
  let x = Value.to_bool a and y = Value.to_bool b in
  match op with
  | A.And_op -> Value.Bool (x && y)
  | A.Or_op -> Value.Bool (x || y)
  | A.Xor_op -> Value.Bool (x <> y)
  | _ -> assert false

(* ---------- indexing ---------- *)

let index_string s i =
  let n = String.length s in
  let i = if i < 0 then n + i else i in
  if i < 0 || i >= n then Value.Null else Value.Char s.[i]

let index_array xs i =
  let n = Array.length xs in
  let i = if i < 0 then n + i else i in
  if i < 0 || i >= n then Value.Null else xs.(i)

let index_value container index =
  let scalar_index v i =
    match v with
    | Value.Str s -> index_string s i
    | Value.Arr xs -> index_array xs i
    | Value.Null -> Value.Null
    | _ -> fail "cannot index %s" (Value.type_name v)
  in
  match (container, index) with
  | Value.Hash pairs, key -> (
      match
        List.find_opt (fun (k, _) -> Value.equal_loose k key) pairs
      with
      | Some (_, v) -> v
      | None -> Value.Null)
  | v, Value.Arr indices ->
      (* slice: collect each index; string slices yield char arrays *)
      Value.Arr (Value.map_array (fun ix -> scalar_index v (Value.to_int ix)) indices)
  | v, ix -> scalar_index v (Value.to_int ix)
