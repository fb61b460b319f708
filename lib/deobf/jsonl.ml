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

(* One growing buffer per connection: a read appends to it in place, and
   [scanned] remembers how far the search for a newline already got, so a
   line that takes many reads to arrive is copied and scanned once, not
   once per read. *)
module Reader = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* first byte not yet returned in a line *)
    mutable stop : int;  (* end of the bytes read *)
    mutable scanned : int;  (* [start, scanned) holds no newline *)
  }

  let chunk = 65536
  let create () = { buf = Bytes.create chunk; start = 0; stop = 0; scanned = 0 }

  let read t fd =
    if t.start = t.stop then begin
      (* every byte read was returned: start over at the front, in a
         fresh buffer when a long line grew this one *)
      if Bytes.length t.buf > chunk then t.buf <- Bytes.create chunk;
      t.start <- 0;
      t.stop <- 0;
      t.scanned <- 0
    end
    else if Bytes.length t.buf - t.stop < chunk then begin
      (* make room for one chunk: move the unreturned bytes to the front,
         into a buffer twice the size when a chunk does not fit beside
         them *)
      let live = t.stop - t.start in
      let buf =
        if live + chunk <= Bytes.length t.buf then t.buf
        else Bytes.create (2 * Bytes.length t.buf)
      in
      Bytes.blit t.buf t.start buf 0 live;
      t.buf <- buf;
      t.scanned <- t.scanned - t.start;
      t.start <- 0;
      t.stop <- live
    end;
    let n = Unix.read fd t.buf t.stop chunk in
    t.stop <- t.stop + n;
    n

  let next_line t =
    let rec find i =
      if i >= t.stop then None
      else if Bytes.get t.buf i = '\n' then Some i
      else find (i + 1)
    in
    match find t.scanned with
    | None ->
        t.scanned <- t.stop;
        None
    | Some i ->
        let line = Bytes.sub_string t.buf t.start (i - t.start) in
        t.start <- i + 1;
        t.scanned <- i + 1;
        Some line

  let pending t = t.stop - t.start
end
