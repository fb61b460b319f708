(** Instance members and methods on runtime values.

    Covers the .NET surface that obfuscated recovery code calls: the string
    API (Replace/Split/Substring/…), array Length/Count, stream ReadToEnd,
    encoding GetString/GetBytes, and WebClient's download methods (side
    effects, so they go through {!Env.record}). *)

open Psvalue
module Strcase = Pscommon.Strcase

exception Member_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Member_error s)) fmt

let arg_string = function
  | [ v ] -> Value.to_string v
  | args -> fail "expected 1 argument, got %d" (List.length args)

(* ---------- properties ---------- *)

(* Member names arrive as lookup keys: folded, by the parser or by the
   interpreter for a name computed at run time. *)
let get_property v n =
  match (v, n) with
  | Value.Str s, "length" -> Some (Value.Int (String.length s))
  | Value.Arr a, ("length" | "count") -> Some (Value.Int (Array.length a))
  | Value.Hash pairs, ("count" | "length") -> Some (Value.Int (List.length pairs))
  | Value.Hash pairs, ("keys") ->
      Some (Value.Arr (Value.array_of_list (List.map fst pairs)))
  | Value.Hash pairs, ("values") ->
      Some (Value.Arr (Value.array_of_list (List.map snd pairs)))
  | Value.Hash pairs, key -> (
      (* hashtables expose entries as properties *)
      match
        List.find_opt (fun (k, _) -> Strcase.equal (Value.to_string k) key) pairs
      with
      | Some (_, value) -> Some value
      | None -> None)
  | Value.Str _, "chars" -> None (* method-style only *)
  | Value.Secure_string s, "length" -> Some (Value.Int (String.length s))
  | Value.Obj { okind = Value.Memory_stream st; _ }, "length" ->
      Some (Value.Int (String.length st.Value.data))
  | Value.Char _, "length" -> Some (Value.Int 1)
  | _, "psobject" -> Some v
  | _ -> None

(* ---------- string methods ---------- *)

let clamp_sub s start len =
  let n = String.length s in
  if start < 0 || start > n then fail "Substring start %d out of range" start
  else
    let len = min len (n - start) in
    String.sub s start len

let split_on_chars s seps =
  if seps = [] then [ s ]
  else
    let is_sep c = List.mem c seps in
    let buf = Buffer.create 16 in
    let parts = ref [] in
    String.iter
      (fun c ->
        if is_sep c then begin
          parts := Buffer.contents buf :: !parts;
          Buffer.clear buf
        end
        else Buffer.add_char buf c)
      s;
    parts := Buffer.contents buf :: !parts;
    List.rev !parts

let string_method s n args =
  match (n, args) with
  | "replace", [ a; b ] ->
      (* String.Replace is ordinal case-SENSITIVE, unlike -replace *)
      let needle = Value.to_string a and repl = Value.to_string b in
      if needle = "" then fail "Replace: empty search string"
      else
        let buf = Buffer.create (String.length s) in
        let nl = String.length needle in
        let rec loop i =
          if i > String.length s - nl then
            Buffer.add_substring buf s i (String.length s - i)
          else if String.sub s i nl = needle then begin
            Buffer.add_string buf repl;
            loop (i + nl)
          end
          else begin
            Buffer.add_char buf s.[i];
            loop (i + 1)
          end
        in
        loop 0;
        Some (Value.Str (Buffer.contents buf))
  | "split", seps ->
      let chars =
        List.concat_map
          (fun v ->
            match v with
            | Value.Char c -> [ c ]
            | Value.Str str -> List.init (String.length str) (String.get str)
            | Value.Arr a ->
                List.concat_map
                  (fun x ->
                    let s = Value.to_string x in
                    List.init (String.length s) (String.get s))
                  (Array.to_list a)
            | v -> [ Value.to_char v ])
          seps
      in
      Some
        (Value.Arr
           (Value.array_of_list (List.map (fun p -> Value.Str p) (split_on_chars s chars))))
  | "substring", [ a ] -> Some (Value.Str (clamp_sub s (Value.to_int a) (String.length s)))
  | "substring", [ a; b ] -> Some (Value.Str (clamp_sub s (Value.to_int a) (Value.to_int b)))
  | "toupper", [] | "toupperinvariant", [] -> Some (Value.Str (String.uppercase_ascii s))
  | "tolower", [] | "tolowerinvariant", [] -> Some (Value.Str (String.lowercase_ascii s))
  | "tochararray", [] -> Some (Value.chars_to_value s)
  | "tostring", _ -> Some (Value.Str s)
  | "trim", [] -> Some (Value.Str (String.trim s))
  | "trim", args ->
      let chars = List.map Value.to_char args in
      let drop c = List.mem c chars in
      let n = String.length s in
      let i = ref 0 and j = ref (n - 1) in
      while !i < n && drop s.[!i] do incr i done;
      while !j >= !i && drop s.[!j] do decr j done;
      Some (Value.Str (String.sub s !i (!j - !i + 1)))
  | "trimstart", [] ->
      let n = String.length s in
      let i = ref 0 in
      while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
      Some (Value.Str (String.sub s !i (n - !i)))
  | "trimend", [] ->
      let j = ref (String.length s - 1) in
      while !j >= 0 && (s.[!j] = ' ' || s.[!j] = '\t') do decr j done;
      Some (Value.Str (String.sub s 0 (!j + 1)))
  | "startswith", [ a ] ->
      (* ordinal, case-sensitive — .NET default *)
      let prefix = Value.to_string a in
      let lp = String.length prefix in
      Some (Value.Bool (lp <= String.length s && String.sub s 0 lp = prefix))
  | "startswith", [ a; _comparison ] ->
      Some (Value.Bool (Strcase.starts_with ~prefix:(Value.to_string a) s))
  | "endswith", [ a ] ->
      let suffix = Value.to_string a in
      let ls = String.length s and lx = String.length suffix in
      Some (Value.Bool (lx <= ls && String.sub s (ls - lx) lx = suffix))
  | "contains", [ a ] ->
      let needle = Value.to_string a in
      Some (Value.Bool (needle = "" || Strcase.index_opt ~needle s <> None))
  | "indexof", [ a ] -> (
      let needle = Value.to_string a in
      match Strcase.index_opt ~needle s with
      | Some i -> Some (Value.Int i)
      | None -> Some (Value.Int (-1)))
  | "lastindexof", [ a ] ->
      let needle = Value.to_string a in
      let rec last from acc =
        match Strcase.index_opt ~from ~needle s with
        | Some i -> last (i + 1) i
        | None -> acc
      in
      Some (Value.Int (last 0 (-1)))
  | "insert", [ a; b ] ->
      let i = Value.to_int a and piece = Value.to_string b in
      if i < 0 || i > String.length s then fail "Insert index out of range"
      else Some (Value.Str (String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)))
  | "remove", [ a ] ->
      let i = Value.to_int a in
      if i < 0 || i > String.length s then fail "Remove index out of range"
      else Some (Value.Str (String.sub s 0 i))
  | "remove", [ a; b ] ->
      let i = Value.to_int a and count = Value.to_int b in
      if i < 0 || i + count > String.length s then fail "Remove range invalid"
      else Some (Value.Str (String.sub s 0 i ^ String.sub s (i + count) (String.length s - i - count)))
  | "padleft", [ a ] ->
      let w = Value.to_int a in
      Some (Value.Str (if String.length s >= w then s else String.make (w - String.length s) ' ' ^ s))
  | "padright", [ a ] ->
      let w = Value.to_int a in
      Some (Value.Str (if String.length s >= w then s else s ^ String.make (w - String.length s) ' '))
  | "chars", [ a ] -> Some (Ops.index_string s (Value.to_int a))
  | "normalize", _ -> Some (Value.Str s)
  | "gettype", [] -> Some (Value.Str "System.String")
  | "clone", [] -> Some (Value.Str s)
  | "compareto", [ a ] -> Some (Value.Int (compare s (Value.to_string a)))
  | "equals", [ a ] -> Some (Value.Bool (String.equal s (Value.to_string a)))
  | "getenumerator", [] -> Some (Value.chars_to_value s)
  | _ -> None

(* ---------- streams, encodings, objects ---------- *)

let read_all (st : Value.stream_state) =
  let rest = String.sub st.Value.data st.Value.pos (String.length st.Value.data - st.Value.pos) in
  st.Value.pos <- String.length st.Value.data;
  rest

let encoding_get_string enc data =
  match enc with
  | Value.Enc_unicode -> Encoding.Utf16.decode_lossy data
  | Value.Enc_utf8 | Value.Enc_ascii | Value.Enc_default -> data
  | Value.Enc_utf32 ->
      String.init (String.length data / 4) (fun i ->
          let c = Char.code data.[4 * i] in
          if c < 256 then Char.chr c else '?')

let encoding_get_bytes enc s =
  match enc with
  | Value.Enc_unicode -> Encoding.Utf16.encode s
  | Value.Enc_utf8 | Value.Enc_ascii | Value.Enc_default -> s
  | Value.Enc_utf32 ->
      String.concat "" (List.init (String.length s) (fun i -> String.make 1 s.[i] ^ "\000\000\000"))

let dead_network env =
  if env.Env.downloads_fail then
    raise (Env.Eval_error "WebClient: unable to connect to the remote server")

let object_method env (o : Value.ps_object) n args =
  match (o.Value.okind, n, args) with
  | Value.Web_client, "downloadstring", [ url ] ->
      let url = Value.to_string url in
      Env.record env (Env.Http_get url);
      dead_network env;
      (* sandbox: the downloaded payload is a synthetic inert script *)
      Some (Value.Str (Printf.sprintf "# downloaded from %s" url))
  | Value.Web_client, "downloadfile", [ url; path ] ->
      let url = Value.to_string url and path = Value.to_string path in
      Env.record env (Env.Http_download (url, path));
      dead_network env;
      Some Value.Null
  | Value.Web_client, "downloaddata", [ url ] ->
      let url = Value.to_string url in
      Env.record env (Env.Http_get url);
      dead_network env;
      Some (Value.bytes_to_value "MZ")
  | Value.Web_client, "openread", [ url ] ->
      let url = Value.to_string url in
      Env.record env (Env.Http_get url);
      Some
        (Value.Obj
           { Value.otype = "System.IO.MemoryStream";
             okind = Value.Memory_stream { Value.data = ""; pos = 0 } })
  | (Value.Memory_stream st | Value.Deflate_stream st | Value.Gzip_stream st), "toarray", [] ->
      Some (Value.bytes_to_value st.Value.data)
  | (Value.Memory_stream st | Value.Deflate_stream st | Value.Gzip_stream st), "readtoend", [] ->
      Some (Value.Str (read_all st))
  | Value.Stream_reader st, "readtoend", [] -> Some (Value.Str (read_all st))
  | Value.Stream_reader st, "readline", [] ->
      let data = st.Value.data in
      if st.Value.pos >= String.length data then Some Value.Null
      else begin
        let nl =
          match String.index_from_opt data st.Value.pos '\n' with
          | Some i -> i
          | None -> String.length data
        in
        let line = String.sub data st.Value.pos (nl - st.Value.pos) in
        st.Value.pos <- min (String.length data) (nl + 1);
        Some (Value.Str line)
      end
  | (Value.Memory_stream _ | Value.Deflate_stream _ | Value.Gzip_stream _ | Value.Stream_reader _),
    ("close" | "dispose" | "flush"), _ ->
      Some Value.Null
  | Value.Encoding_obj enc, "getstring", [ data ] ->
      Some (Value.Str (encoding_get_string enc (Value.value_to_bytes data)))
  | Value.Encoding_obj enc, "getbytes", [ s ] ->
      Some (Value.bytes_to_value (encoding_get_bytes enc (Value.to_string s)))
  | _, "tostring", _ -> Some (Value.Str o.Value.otype)
  | _, "gettype", [] -> Some (Value.Str o.Value.otype)
  | _ -> None

let invoke_method env v name args =
  match v with
  | Value.Str s -> string_method s name args
  | Value.Char c -> string_method (String.make 1 c) name args
  | Value.Int n -> (
      match name with
      | "tostring" -> (
          match args with
          | [] -> Some (Value.Str (string_of_int n))
          | [ fmt ] -> Some (Value.Str (Format_op.apply_numeric_format (Value.to_string fmt) v))
          | _ -> None)
      | "gettype" -> Some (Value.Str "System.Int32")
      | "equals" -> (
          match args with
          | [ x ] -> Some (Value.Bool (Value.equal_loose v x))
          | _ -> None)
      | _ -> None)
  | Value.Arr a -> (
      match (name, args) with
      | "contains", [ x ] ->
          Some (Value.Bool (Array.exists (fun e -> Value.equal_loose e x) a))
      | "indexof", [ x ] ->
          let idx = ref (-1) in
          Array.iteri (fun i e -> if !idx < 0 && Value.equal_loose e x then idx := i) a;
          Some (Value.Int !idx)
      | "tostring", _ -> Some (Value.Str (Value.to_string v))
      | "gettype", [] -> Some (Value.Str "System.Object[]")
      | "clone", [] -> Some (Value.Arr (Array.copy a))
      | "getvalue", [ i ] -> Some (Ops.index_array a (Value.to_int i))
      | _ -> None)
  | Value.Hash pairs -> (
      match (name, args) with
      | "containskey", [ k ] ->
          Some (Value.Bool (List.exists (fun (key, _) -> Value.equal_loose key k) pairs))
      | "tostring", _ -> Some (Value.Str "System.Collections.Hashtable")
      | _ -> None)
  | Value.Obj o -> object_method env o name args
  | Value.Secure_string _ -> (
      match name with
      | "tostring" -> Some (Value.Str "System.Security.SecureString")
      | _ -> None)
  | Value.Bool _ | Value.Float _ | Value.Null -> (
      match name with
      | "tostring" -> Some (Value.Str (Value.to_string v))
      | _ -> None)
  | Value.Script_block _ -> None (* Invoke handled by the interpreter *)
