(** Minimal field extraction over single-line JSON objects.

    Shared by the batch resume journal and the serve daemon's NDJSON
    protocol.  This is {e not} a general JSON parser: it scans flat
    objects whose strings were escaped by
    {!Pscommon.Telemetry.json_escape} (so a value never contains a raw
    newline or an unescaped quote).  A malformed line simply fails to match — exactly the right degradation
    for a journal replay or an untrusted request line, where the answer
    to "can't read it" is "skip it / answer with an error", never an
    exception. *)

let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let scan_string line i =
  let buf = Buffer.create 16 in
  let n = String.length line in
  let rec go i =
    if i >= n then None
    else
      match line.[i] with
      | '"' -> Some (Buffer.contents buf)
      | '\\' when i + 1 < n -> (
          match line.[i + 1] with
          | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
          | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
          | 't' -> Buffer.add_char buf '\t'; go (i + 2)
          | 'u' when i + 5 < n ->
              (match int_of_string_opt ("0x" ^ String.sub line (i + 2) 4) with
              | Some c when c < 0x100 -> Buffer.add_char buf (Char.chr c)
              | _ -> ());
              go (i + 6)
          | c -> Buffer.add_char buf c; go (i + 2))
      | c -> Buffer.add_char buf c; go (i + 1)
  in
  go i

let field_start line key =
  match index_of line ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i ->
      let j = ref (i + String.length key + 3) in
      let n = String.length line in
      while !j < n && line.[!j] = ' ' do incr j done;
      if !j >= n then None else Some !j

let string_field line key =
  match field_start line key with
  | Some j when line.[j] = '"' -> scan_string line (j + 1)
  | _ -> None

let int_field line key =
  match field_start line key with
  | None -> None
  | Some j ->
      let n = String.length line in
      let k = ref j in
      while
        !k < n && (line.[!k] = '-' || (line.[!k] >= '0' && line.[!k] <= '9'))
      do
        incr k
      done;
      int_of_string_opt (String.sub line j (!k - j))

let float_field line key =
  match field_start line key with
  | None -> None
  | Some j ->
      let n = String.length line in
      let k = ref j in
      while
        !k < n
        && (match line.[!k] with
           | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
           | _ -> false)
      do
        incr k
      done;
      float_of_string_opt (String.sub line j (!k - j))

let bool_field line key =
  match field_start line key with
  | Some j when j + 4 <= String.length line && String.sub line j 4 = "true" ->
      Some true
  | Some j when j + 5 <= String.length line && String.sub line j 5 = "false"
    ->
      Some false
  | _ -> None

(* Flattening is safe for anything we rendered ourselves: json_string
   escapes newlines inside values, so every '\n' left in a multi-line
   rendering is formatting whitespace between tokens. *)
let oneline s = String.map (fun c -> if c = '\n' then ' ' else c) s
