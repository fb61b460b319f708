(** Cast semantics ([\[type\] expr], ConvertExpressionAst).

    Obfuscation leans on a small set of casts: [\[char\]] of a code point,
    [\[char\[\]\]] of a string, [\[string\]], numeric casts, [\[byte\[\]\]]
    and the stream-constructing casts ([\[IO.MemoryStream\]] over a byte
    array). *)

open Psvalue

exception Cast_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Cast_error s)) fmt

(* the elements a cast to an array type converts, in order *)
let elements (v : Value.t) =
  match v with Null -> [||] | Arr a -> a | v -> [| v |]

let to_string_array v =
  Value.Arr (Value.map_array (fun x -> Value.Str (Value.to_string x)) (elements v))

let to_int_array v =
  Value.Arr (Value.map_array (fun x -> Value.of_int (Value.to_int x)) (elements v))

let to_char_array v =
  match v with
  | Value.Str s -> Value.chars_to_value s
  | Value.Arr a -> Value.Arr (Value.map_array (fun x -> Value.of_char (Value.to_char x)) a)
  | v -> Value.chars_to_value (Value.to_string v)

let to_byte_array v = Value.bytes_to_value (Value.value_to_bytes v)

let parse_scriptblock text =
  match Psparse.Parser.parse text with
  | Ok { Psast.Ast.node = Psast.Ast.Script_block sb; _ } ->
      Value.Script_block { Value.sb_ast = sb; sb_text = text; sb_src = text }
  | Ok _ -> fail "scriptblock parse produced an unexpected node"
  | Error e -> fail "cannot convert to scriptblock: %s" e.Psparse.Parser.message

(* [key] is the type's lookup key ({!Psparse.Names.type_key}) *)
let cast key v =
  match key with
  | "string" -> Value.Str (Value.to_string v)
  | "char" -> Value.of_char (Value.to_char v)
  | "int" | "int32" | "int64" | "long" | "int16" | "short" | "uint32" | "uint64"
  | "uint16" | "sbyte" ->
      Value.of_int (Value.to_int v)
  | "byte" ->
      let n = Value.to_int v in
      if n < 0 || n > 255 then fail "value %d out of byte range" n
      else Value.of_int n
  | "double" | "float" | "single" | "decimal" -> Value.Float (Value.to_float v)
  | "bool" | "boolean" -> Value.Bool (Value.to_bool v)
  | "char[]" -> to_char_array v
  | "byte[]" -> to_byte_array v
  | "int[]" | "int32[]" -> to_int_array v
  | "string[]" -> to_string_array v
  | "array" | "object[]" -> (
      match v with Value.Arr _ -> v | x -> Value.Arr [| x |])
  | "object" -> v
  | "void" -> Value.Null
  | "regex" | "text.regularexpressions.regex" -> Value.Str (Value.to_string v)
  | "scriptblock" | "management.automation.scriptblock" ->
      parse_scriptblock (Value.to_string v)
  | "io.memorystream" ->
      let data = Value.value_to_bytes v in
      Value.Obj
        { Value.otype = "System.IO.MemoryStream";
          okind = Value.Memory_stream { Value.data; pos = 0 } }
  | "securestring" | "security.securestring" -> (
      match v with
      | Value.Secure_string _ -> v
      | x -> Value.Secure_string (Value.to_string x))
  | "type" -> Value.Str (Value.to_string v)
  | other -> fail "unsupported cast to [%s]" other
