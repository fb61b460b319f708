(** PowerShell runtime values.

    The interpreter only ever executes {e recoverable pieces} — code whose
    result should be a string, number or simple collection — so the value
    model covers PowerShell's primitives, arrays, hashtables, script blocks
    and the handful of .NET object types that obfuscation recovery code
    touches (streams, encodings, WebClient). *)

open Pscommon

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Char of char
  | Arr of t array  (** mutable on purpose: [\[array\]::Reverse] mutates *)
  | Hash of (t * t) list
  | Script_block of sb
  | Secure_string of string
      (** simulation keeps the plaintext; [Marshal::PtrToStringAuto] round
          trips recover it *)
  | Obj of ps_object

and sb = {
  sb_ast : Psast.Ast.script_block;
  sb_text : string;
  sb_src : string;
}

and ps_object = { otype : string; okind : object_kind }

and object_kind =
  | Web_client
  | Memory_stream of stream_state
  | Deflate_stream of stream_state  (** holds already-inflated data *)
  | Gzip_stream of stream_state
  | Stream_reader of stream_state
  | Encoding_obj of encoding_name
  | Bstr of string  (** result of [SecureStringToBSTR] *)
  | Generic  (** only its type name is known — [ToString] yields it *)

and stream_state = { mutable data : string; mutable pos : int }

and encoding_name = Enc_unicode | Enc_utf8 | Enc_ascii | Enc_default | Enc_utf32

exception Conversion_error of string

let conv_fail fmt = Printf.ksprintf (fun s -> raise (Conversion_error s)) fmt

(* Arrays of values start full of [Null] and are then filled.
   [Array.make], [Array.of_list], [Array.init] and [Array.map] start an
   array full of its first element; when that element is young and the
   array longer than 256 words, the runtime empties the minor heap first,
   so a large array never points at a young value when it is made. *)
let array_of_list = function
  | [] -> [||]
  | vs ->
      let a = Array.make (List.length vs) Null in
      let rec fill i = function
        | [] -> ()
        | v :: rest ->
            Array.unsafe_set a i v;
            fill (i + 1) rest
      in
      fill 0 vs;
      a

let init_array n f =
  let a = Array.make n Null in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (f i)
  done;
  a

let map_array f a =
  let b = Array.make (Array.length a) Null in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set b i (f (Array.unsafe_get a i))
  done;
  b

let of_list = function [] -> Null | [ v ] -> v | vs -> Arr (array_of_list vs)

(* [of_list (to_list v)], without the list or a copy *)
let of_items = function Arr [||] -> Null | Arr [| v |] -> v | v -> v

(* One box per character and per byte value, built once: a decoded
   character, a byte or a character code then allocates nothing.  Scalars
   are immutable, so sharing a box is invisible.  Each table is small
   enough for the minor heap: a 1 024-entry one, built while the program
   started, cost every process about half a millisecond. *)
let char_boxes = Array.init 256 (fun i -> Char (Char.chr i))
let byte_boxes = Array.init 256 (fun i -> Int i)
let of_char c = Array.unsafe_get char_boxes (Char.code c)
let of_int n = if n >= 0 && n < 256 then Array.unsafe_get byte_boxes n else Int n

let to_list = function
  | Null -> []
  | Arr a -> Array.to_list a
  | v -> [ v ]

let encoding_type_name = function
  | Enc_unicode -> "System.Text.UnicodeEncoding"
  | Enc_utf8 -> "System.Text.UTF8Encoding"
  | Enc_ascii -> "System.Text.ASCIIEncoding"
  | Enc_default -> "System.Text.UTF8Encoding"
  | Enc_utf32 -> "System.Text.UTF32Encoding"

let type_name = function
  | Null -> "System.Object"
  | Bool _ -> "System.Boolean"
  | Int _ -> "System.Int32"
  | Float _ -> "System.Double"
  | Str _ -> "System.String"
  | Char _ -> "System.Char"
  | Arr _ -> "System.Object[]"
  | Hash _ -> "System.Collections.Hashtable"
  | Script_block _ -> "System.Management.Automation.ScriptBlock"
  | Secure_string _ -> "System.Security.SecureString"
  | Obj o -> o.otype

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* culture-invariant shortest representation *)
    let s = Printf.sprintf "%.15g" f in
    s

(* A script block's text is its source as spelled, so an evaluation that
   stringifies one can tell two spellings of the same parse apart; the
   count, per domain, lets a caller notice that it did. *)
let sb_text_reads = Domain.DLS.new_key (fun () -> ref 0)
let script_block_text_reads () = !(Domain.DLS.get sb_text_reads)

(* PowerShell-style stringification. *)
let rec to_string = function
  | Null -> ""
  | Bool b -> if b then "True" else "False"
  | Int n -> string_of_int n
  | Float f -> float_to_string f
  | Str s -> s
  | Char c -> String.make 1 c
  | Arr a -> String.concat " " (List.map to_string (Array.to_list a))
  | Hash _ -> "System.Collections.Hashtable"
  | Script_block sb ->
      incr (Domain.DLS.get sb_text_reads);
      sb.sb_text
  | Secure_string _ -> "System.Security.SecureString"
  | Obj o -> o.otype

(* numeric conversions: PowerShell parses "0x4B" strings as hex, trims
   whitespace, accepts chars by code point *)
let to_int = function
  | Null -> 0
  | Bool b -> if b then 1 else 0
  | Int n -> n
  | Float f -> int_of_float (Float.round f)
  | Char c -> Char.code c
  | Str s -> (
      let s = String.trim s in
      match int_of_string s with
      | n -> n
      | exception Failure _ -> (
          match float_of_string_opt s with
          | Some f -> int_of_float (Float.round f)
          | None -> conv_fail "cannot convert %S to Int32" s))
  | v -> conv_fail "cannot convert %s to Int32" (type_name v)

let to_float = function
  | Null -> 0.0
  | Bool b -> if b then 1.0 else 0.0
  | Int n -> float_of_int n
  | Float f -> f
  | Char c -> float_of_int (Char.code c)
  | Str s -> (
      let s = String.trim s in
      match float_of_string_opt s with
      | Some f -> f
      | None -> (
          match int_of_string_opt s with
          | Some n -> float_of_int n
          | None -> conv_fail "cannot convert %S to Double" s))
  | v -> conv_fail "cannot convert %s to Double" (type_name v)

(* PowerShell truthiness *)
let to_bool = function
  | Null -> false
  | Bool b -> b
  | Int n -> n <> 0
  | Float f -> f <> 0.0
  | Str s -> String.length s > 0
  | Char _ -> true
  | Arr [||] -> false
  | Arr [| v |] -> (
      match v with
      | Null -> false
      | Bool b -> b
      | Int n -> n <> 0
      | Float f -> f <> 0.0
      | Str s -> String.length s > 0
      | _ -> true)
  | Arr _ -> true
  | Hash _ -> true
  | Script_block _ -> true
  | Secure_string _ -> true
  | Obj _ -> true

let to_char = function
  | Char c -> c
  | Int n when n >= 0 && n < 256 -> Char.chr n
  | Int n -> conv_fail "char code %d outside the byte range" n
  | Float f ->
      let n = int_of_float f in
      if Float.is_integer f && n >= 0 && n < 256 then Char.chr n
      else conv_fail "cannot convert %g to Char" f
  | Str s when String.length s = 1 -> s.[0]
  | Str s -> conv_fail "cannot convert %S to Char" s
  | v -> conv_fail "cannot convert %s to Char" (type_name v)

(* byte strings <-> value arrays *)
let bytes_to_value data =
  Arr (init_array (String.length data) (fun i -> of_int (Char.code data.[i])))

let value_to_bytes v =
  match v with
  | Str s -> s
  | Arr a ->
      String.init (Array.length a) (fun i ->
          match a.(i) with
          | Int n -> Char.chr (n land 0xFF)
          | Char c -> c
          | x -> conv_fail "byte array element has type %s" (type_name x))
  | Char c -> String.make 1 c
  | Int n -> String.make 1 (Char.chr (n land 0xFF))
  | Null -> ""
  | v -> conv_fail "cannot convert %s to byte[]" (type_name v)

let chars_to_value s =
  Arr (init_array (String.length s) (fun i -> of_char s.[i]))

(* ---------- loose equality / comparison (PowerShell -eq semantics) ---------- *)

let rec equal_loose ?(case_sensitive = false) a b =
  match (a, b) with
  | Null, Null -> true
  | Null, _ | _, Null -> false
  | Bool x, _ -> x = to_bool b
  | Int _, _ | Float _, _ -> (
      try to_float a = to_float b with Conversion_error _ -> false)
  | Char x, Char y ->
      if case_sensitive then x = y
      else Char.lowercase_ascii x = Char.lowercase_ascii y
  | Char _, _ | Str _, _ ->
      let sa = to_string a and sb = to_string b in
      if case_sensitive then String.equal sa sb else Strcase.equal sa sb
  | Arr xs, Arr ys ->
      Array.length xs = Array.length ys
      && Array.for_all2 (fun x y -> equal_loose ~case_sensitive x y) xs ys
  | Arr _, _ -> false
  | Hash _, _ | Script_block _, _ | Secure_string _, _ | Obj _, _ -> a == b

let compare_loose ?(case_sensitive = false) a b =
  match a with
  | Int _ | Float _ | Bool _ -> Float.compare (to_float a) (to_float b)
  | Char _ | Str _ ->
      let sa = to_string a and sb = to_string b in
      if case_sensitive then String.compare sa sb else Strcase.compare sa sb
  | Null -> if b = Null then 0 else -1
  | _ -> conv_fail "cannot order %s values" (type_name a)

(* ---------- source rendering ---------- *)

(* Renders a recovery result back into script text, preserving semantics:
   strings are single-quoted with '' escaping, numbers are bare (paper
   §III-B2). *)
let quote_single s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '\'';
  String.iter
    (fun c ->
      if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '\'';
  Buffer.contents buf

let rec to_source_opt v =
  match v with
  | Str s ->
      (* control characters cannot be written in a single-quoted literal
         faithfully; fall back for those *)
      if String.for_all (fun c -> c >= ' ' || c = '\n' || c = '\t' || c = '\r') s
      then Some (quote_single s)
      else None
  | Int n -> Some (string_of_int n)
  | Float f -> Some (float_to_string f)
  | Char c -> Some (Printf.sprintf "[char]%d" (Char.code c))
  | Bool b -> Some (if b then "$true" else "$false")
  | Null -> Some "$null"
  | Arr a ->
      if Array.length a = 0 then Some "@()"
      else
        let parts = Array.map to_source_opt a in
        if Array.for_all Option.is_some parts then
          let rendered = Array.to_list (Array.map Option.get parts) in
          if Array.length a = 1 then Some (Printf.sprintf "@(%s)" (List.hd rendered))
          else Some (String.concat "," rendered)
        else None
  | Hash _ | Script_block _ | Secure_string _ | Obj _ -> None

(* ---------- pretty-printing for diagnostics ---------- *)

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "$null"
  | Bool b -> Format.fprintf fmt "%B" b
  | Int n -> Format.fprintf fmt "%d" n
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Char c -> Format.fprintf fmt "[char]%C" c
  | Arr a ->
      Format.fprintf fmt "@(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
        (Array.to_list a)
  | Hash pairs ->
      Format.fprintf fmt "@{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f "; ")
           (fun f (k, v) -> Format.fprintf f "%a=%a" pp k pp v))
        pairs
  | Script_block sb -> Format.fprintf fmt "{%s}" sb.sb_text
  | Secure_string _ -> Format.pp_print_string fmt "<securestring>"
  | Obj o -> Format.fprintf fmt "<%s>" o.otype
