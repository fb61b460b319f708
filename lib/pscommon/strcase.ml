(* Folding and comparison are top-level recursions over indices: no
   closure, no substring, no folded copy.  [lower] and [upper] return their
   argument itself when it is already folded, so the hot callers (variable
   lookup, type names, member names) allocate nothing on already-normal
   names. *)

let rec has_upper s i n =
  i < n
  && (match String.unsafe_get s i with
     | 'A' .. 'Z' -> true
     | _ -> has_upper s (i + 1) n)

let rec has_lower s i n =
  i < n
  && (match String.unsafe_get s i with
     | 'a' .. 'z' -> true
     | _ -> has_lower s (i + 1) n)

let lower s =
  if has_upper s 0 (String.length s) then String.lowercase_ascii s else s

let upper s =
  if has_lower s 0 (String.length s) then String.uppercase_ascii s else s

(* [a] from offset [oa] and [b] from offset [ob] agree caselessly on [len]
   characters *)
let rec region_equal a oa b ob len =
  len = 0
  || Char.lowercase_ascii (String.unsafe_get a oa)
     = Char.lowercase_ascii (String.unsafe_get b ob)
     && region_equal a (oa + 1) b (ob + 1) (len - 1)

let equal a b =
  String.length a = String.length b && region_equal a 0 b 0 (String.length a)

(* the order of [String.compare] on the lowercased strings, with its -1 / 0
   / 1 results *)
let rec compare_from a b i n =
  if i = n then Int.compare (String.length a) (String.length b)
  else
    let ca = Char.lowercase_ascii (String.unsafe_get a i)
    and cb = Char.lowercase_ascii (String.unsafe_get b i) in
    if ca = cb then compare_from a b (i + 1) n else if ca < cb then -1 else 1

let compare a b =
  compare_from a b 0 (Int.min (String.length a) (String.length b))

let starts_with ~prefix s =
  String.length prefix <= String.length s
  && region_equal prefix 0 s 0 (String.length prefix)

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  lx <= ls && region_equal suffix 0 s (ls - lx) lx

let index_opt ?(from = 0) ~needle s =
  let ls = String.length s and ln = String.length needle in
  if ln = 0 then None
  else
    let needle = lower needle in
    let matches_at i =
      let rec check j =
        j = ln
        || Char.lowercase_ascii s.[i + j] = needle.[j] && check (j + 1)
      in
      check 0
    in
    let rec scan i =
      if i + ln > ls then None else if matches_at i then Some i else scan (i + 1)
    in
    scan (max 0 from)

let contains ~needle s =
  String.length needle = 0 || index_opt ~needle s <> None

let replace_word ~needle ~replacement ~is_word_char s =
  if String.length needle = 0 then s
  else begin
    let buf = Buffer.create (String.length s) in
    let rec loop pos =
      match index_opt ~from:pos ~needle s with
      | None -> Buffer.add_substring buf s pos (String.length s - pos)
      | Some i ->
          let stop = i + String.length needle in
          if stop < String.length s && is_word_char s.[stop] then begin
            (* partial identifier: not a whole-word occurrence *)
            Buffer.add_substring buf s pos (stop - pos);
            loop stop
          end
          else begin
            Buffer.add_substring buf s pos (i - pos);
            Buffer.add_string buf replacement;
            loop stop
          end
    in
    loop 0;
    Buffer.contents buf
  end

let replace_all ~needle ~replacement s =
  if String.length needle = 0 then s
  else
    let buf = Buffer.create (String.length s) in
    let rec loop pos =
      match index_opt ~from:pos ~needle s with
      | None -> Buffer.add_substring buf s pos (String.length s - pos)
      | Some i ->
          Buffer.add_substring buf s pos (i - pos);
          Buffer.add_string buf replacement;
          loop (i + String.length needle)
    in
    loop 0;
    Buffer.contents buf

module Key = struct
  type t = string

  let compare = compare
end

module Map = Map.Make (Key)
module Set = Set.Make (Key)
