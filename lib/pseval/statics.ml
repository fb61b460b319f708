(** Static type members ([\[Type\]::Member] and [\[Type\]::Method(...)]).

    This is where every L3 decoding primitive lives: base64
    ([\[Convert\]::FromBase64String]), radix conversion
    ([\[Convert\]::ToInt32(s, base)]), text encodings, SecureString
    marshalling, and [\[array\]::Reverse]. *)

open Psvalue
module Strcase = Pscommon.Strcase

exception Static_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Static_error s)) fmt

let encoding_of_member m =
  match m with
  | "unicode" -> Some Value.Enc_unicode
  | "utf8" -> Some Value.Enc_utf8
  | "ascii" -> Some Value.Enc_ascii
  | "default" -> Some Value.Enc_default
  | "utf32" -> Some Value.Enc_utf32
  | "bigendianunicode" -> Some Value.Enc_unicode
  | _ -> None

let encoding_obj enc =
  Value.Obj { Value.otype = Value.encoding_type_name enc; okind = Value.Encoding_obj enc }

(* ---------- property-style statics ---------- *)

(* [t] and [m] are lookup keys: {!Psparse.Names.type_key} and the folded
   member name *)
let get_static t m =
  match t with
  | "text.encoding" | "texts.encoding" -> (
      match encoding_of_member m with
      | Some enc -> Some (encoding_obj enc)
      | None -> None)
  | "io.compression.compressionmode" -> (
      match m with
      | "decompress" -> Some (Value.Str "Decompress")
      | "compress" -> Some (Value.Str "Compress")
      | _ -> None)
  | "math" -> (
      match m with
      | "pi" -> Some (Value.Float Float.pi)
      | "e" -> Some (Value.Float (Float.exp 1.0))
      | _ -> None)
  | "int32" | "int" -> (
      match m with
      | "maxvalue" -> Some (Value.Int 2147483647)
      | "minvalue" -> Some (Value.Int (-2147483648))
      | _ -> None)
  | "char" | "string" | "convert" | "array" -> None
  | "environment" -> (
      match m with
      | "machinename" -> Some (Value.Str "DESKTOP-USER")
      | "username" -> Some (Value.Str "user")
      | "osversion" -> Some (Value.Str "Microsoft Windows NT 10.0.19041.0")
      | "newline" -> Some (Value.Str "\r\n")
      | _ -> None)
  | _ -> None

(* ---------- method-style statics ---------- *)

let radix_digits v =
  match Value.to_int v with
  | 2 | 8 | 10 | 16 -> Value.to_int v
  | n -> fail "unsupported radix %d" n

let to_int_radix s radix =
  let s = String.trim s in
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "invalid digit %C" c
  in
  if s = "" then fail "empty number string"
  else begin
    let acc = ref 0 in
    for i = 0 to String.length s - 1 do
      let c = s.[i] in
      let d = digit c in
      if d >= radix then fail "digit %C out of range for base %d" c radix;
      acc := (!acc * radix) + d
    done;
    !acc
  end

let to_string_radix n radix =
  if n = 0 then "0"
  else if n < 0 then fail "negative value in Convert.ToString with radix"
  else
    let digit d = "0123456789abcdef".[d] in
    let rec go n acc =
      if n = 0 then acc
      else go (n / radix) (String.make 1 (digit (n mod radix)) ^ acc)
    in
    go n ""

let invoke_static t m args =
  match (t, m, args) with
  (* --- Convert --- *)
  | "convert", "frombase64string", [ s ] -> (
      match Encoding.Base64.decode (Value.to_string s) with
      | Ok data -> Some (Value.bytes_to_value data)
      | Error msg -> fail "%s" msg)
  | "convert", "tobase64string", [ v ] ->
      Some (Value.Str (Encoding.Base64.encode (Value.value_to_bytes v)))
  | "convert", ("toint32" | "toint16" | "toint64" | "tobyte"), [ v ] ->
      Some (Value.of_int (Value.to_int v))
  | "convert", ("toint32" | "toint16" | "toint64" | "tobyte"), [ v; radix ] ->
      Some (Value.of_int (to_int_radix (Value.to_string v) (radix_digits radix)))
  | "convert", "tochar", [ v ] -> Some (Value.of_char (Value.to_char v))
  | "convert", "tostring", [ v ] -> Some (Value.Str (Value.to_string v))
  | "convert", "tostring", [ v; radix ] ->
      Some (Value.Str (to_string_radix (Value.to_int v) (radix_digits radix)))
  | "convert", "todouble", [ v ] -> Some (Value.Float (Value.to_float v))
  | "convert", "toboolean", [ v ] -> Some (Value.Bool (Value.to_bool v))
  (* --- char --- *)
  | "char", "convertfromutf32", [ v ] ->
      let n = Value.to_int v in
      if n >= 0 && n < 256 then Some (Value.Str (String.make 1 (Char.chr n)))
      else Some (Value.Str "?")
  | "char", "tolower", [ v ] ->
      Some (Value.Char (Char.lowercase_ascii (Value.to_char v)))
  | "char", "toupper", [ v ] ->
      Some (Value.Char (Char.uppercase_ascii (Value.to_char v)))
  | "char", "isdigit", [ v ] -> (
      match Value.to_char v with
      | '0' .. '9' -> Some (Value.Bool true)
      | _ -> Some (Value.Bool false))
  (* --- string --- *)
  | "string", "join", sep :: rest ->
      let sep = Value.to_string sep in
      let parts =
        match rest with
        | [ Value.Arr a ] -> Array.to_list a
        | vs -> vs
      in
      Some (Value.Str (String.concat sep (List.map Value.to_string parts)))
  | "string", "concat", vs ->
      let parts = List.concat_map Value.to_list vs in
      Some (Value.Str (String.concat "" (List.map Value.to_string parts)))
  | "string", "format", fmt :: rest ->
      Some (Value.Str (Format_op.format (Value.to_string fmt) rest))
  | "string", "isnullorempty", [ v ] ->
      Some (Value.Bool (match v with Value.Null -> true | x -> Value.to_string x = ""))
  | "string", "new", [ chars ] ->
      Some (Value.Str (Value.value_to_bytes (Casts.to_byte_array chars)))
  (* --- array --- *)
  | "array", "reverse", [ Value.Arr a ] ->
      (* in-place, like .NET *)
      let n = Array.length a in
      for i = 0 to (n / 2) - 1 do
        let tmp = a.(i) in
        a.(i) <- a.(n - 1 - i);
        a.(n - 1 - i) <- tmp
      done;
      Some Value.Null
  | "array", "reverse", [ v ] ->
      ignore v;
      Some Value.Null
  (* --- math --- *)
  | "math", "abs", [ v ] -> Some (Value.Int (abs (Value.to_int v)))
  | "math", "round", [ v ] -> Some (Value.Int (Value.to_int v))
  | "math", ("min" | "max"), [ a; b ] ->
      let fa = Value.to_float a and fb = Value.to_float b in
      let r = if m = "min" then Float.min fa fb else Float.max fa fb in
      Some (if Float.is_integer r then Value.Int (int_of_float r) else Value.Float r)
  | "math", "floor", [ v ] -> Some (Value.Float (Float.floor (Value.to_float v)))
  | "math", "ceiling", [ v ] -> Some (Value.Float (Float.ceil (Value.to_float v)))
  | "math", "sqrt", [ v ] -> Some (Value.Float (Float.sqrt (Value.to_float v)))
  | "math", "pow", [ a; b ] ->
      Some (Value.Float (Float.pow (Value.to_float a) (Value.to_float b)))
  (* --- text encoding accessors as methods --- *)
  | "text.encoding", "getencoding", [ v ] -> (
      let name = Strcase.lower (Value.to_string v) in
      match name with
      | "utf-16" | "unicode" | "1200" -> Some (encoding_obj Value.Enc_unicode)
      | "utf-8" | "65001" -> Some (encoding_obj Value.Enc_utf8)
      | "ascii" | "us-ascii" | "20127" -> Some (encoding_obj Value.Enc_ascii)
      | _ -> Some (encoding_obj Value.Enc_default))
  (* --- SecureString marshalling --- *)
  | ("runtime.interopservices.marshal" | "interopservices.marshal" | "marshal"),
    "securestringtobstr", [ Value.Secure_string s ] ->
      Some (Value.Obj { Value.otype = "System.IntPtr"; okind = Value.Bstr s })
  | ("runtime.interopservices.marshal" | "interopservices.marshal" | "marshal"),
    ("ptrtostringauto" | "ptrtostringbstr" | "ptrtostringuni"),
    [ Value.Obj { okind = Value.Bstr s; _ } ] ->
      Some (Value.Str s)
  | ("runtime.interopservices.marshal" | "interopservices.marshal" | "marshal"),
    "zerofreebstr", [ _ ] ->
      Some Value.Null
  (* --- scriptblock --- *)
  | ("scriptblock" | "management.automation.scriptblock"), "create", [ s ] ->
      Some (Casts.parse_scriptblock (Value.to_string s))
  (* --- URL / HTML decoding (generic-recovery surface) --- *)
  | ("uri" | "system.uri"), "unescapedatastring", [ v ]
  | ("net.webutility" | "web.httputility" | "webutility" | "httputility"),
    "urldecode", [ v ] ->
      let s = Value.to_string v in
      let buf = Buffer.create (String.length s) in
      let hex c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid percent escape"
      in
      let rec go i =
        if i < String.length s then
          if s.[i] = '%' && i + 2 < String.length s then begin
            Buffer.add_char buf (Char.chr ((hex s.[i + 1] * 16) + hex s.[i + 2]));
            go (i + 3)
          end
          else if s.[i] = '+' && Strcase.contains ~needle:"urldecode" m then begin
            Buffer.add_char buf ' ';
            go (i + 1)
          end
          else begin
            Buffer.add_char buf s.[i];
            go (i + 1)
          end
      in
      go 0;
      Some (Value.Str (Buffer.contents buf))
  | ("uri" | "system.uri"), "escapedatastring", [ v ] ->
      let s = Value.to_string v in
      let buf = Buffer.create (String.length s * 2) in
      String.iter
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
              Buffer.add_char buf c
          | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
        s;
      Some (Value.Str (Buffer.contents buf))
  | ("net.webutility" | "webutility"), "htmldecode", [ v ] ->
      let s = Value.to_string v in
      let s = Strcase.replace_all ~needle:"&amp;" ~replacement:"&" s in
      let s = Strcase.replace_all ~needle:"&lt;" ~replacement:"<" s in
      let s = Strcase.replace_all ~needle:"&gt;" ~replacement:">" s in
      let s = Strcase.replace_all ~needle:"&quot;" ~replacement:"\"" s in
      let s = Strcase.replace_all ~needle:"&#39;" ~replacement:"'" s in
      Some (Value.Str s)
  (* --- environment --- *)
  | "environment", "getenvironmentvariable", [ _name ] -> Some Value.Null
  | "environment", "getfolderpath", [ _which ] ->
      Some (Value.Str "C:\\Users\\user\\AppData\\Roaming")
  | _ -> None
