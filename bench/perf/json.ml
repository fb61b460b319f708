(** Minimal JSON values: enough to write the benchmark's result files and
    read them back in [perf compare] and in the child-process protocol. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Integral values print without a fraction; anything else prints with the
   fewest digits that read back as the same float, so a measured value keeps
   all its digits and nothing more. *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f when Float.is_finite f -> Buffer.add_string b (number_to_string f)
  | Num _ -> Buffer.add_string b "null"
  | Str s -> Buffer.add_string b (Pscommon.Telemetry.json_string s)
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Pscommon.Telemetry.json_string k);
          Buffer.add_string b ": ";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* Objects nested up to three levels put one field per line; deeper values
   stay on one line, which keeps per-run arrays compact. *)
let to_string_pretty v =
  let depth = 3 in
  let b = Buffer.create 4096 in
  let rec go level indent v =
    match v with
    | Obj (_ :: _ as fields) when level < depth ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b (indent ^ "  ");
            Buffer.add_string b (Pscommon.Telemetry.json_string k);
            Buffer.add_string b ": ";
            go (level + 1) (indent ^ "  ") v)
          fields;
        Buffer.add_string b ("\n" ^ indent ^ "}")
    | v -> write b v
  in
  go 0 "" v;
  Buffer.add_char b '\n';
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    (* the opening quote is already consumed *)
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          loop ()
      | c ->
          Buffer.add_char b c;
          loop ()
    in
    loop ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            expect '"';
            let k = string_body () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' ->
        incr pos;
        Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f when !pos > start -> Num f
        | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let of_file path = parse (In_channel.with_open_bin path In_channel.input_all)

let to_file path v =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string_pretty v))

(* ---------- accessors (raise [Parse_error] on a shape mismatch) ---------- *)

let member k = function
  | Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> raise (Parse_error ("missing field " ^ k)))
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let member_opt k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function
  | Num f -> f
  | Null -> nan
  | _ -> raise (Parse_error "not a number")

let to_int v = int_of_float (to_float v)
let to_str = function Str s -> s | _ -> raise (Parse_error "not a string")
let to_list = function Arr l -> l | _ -> raise (Parse_error "not an array")
let to_obj = function Obj l -> l | _ -> raise (Parse_error "not an object")
let floats l = Arr (List.map (fun f -> Num f) l)
let ints l = Arr (List.map (fun i -> Num (float_of_int i)) l)
