(** A strict JSON reader for single NDJSON lines.  See the interface for
    the contract. *)

type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

(* arrays and objects nested deeper than this are refused, which bounds
   the parser's recursion whatever a line holds *)
let max_depth = 64

(* a line holding more values than this is refused: each costs about 80
   bytes parsed, so an 8 MiB line of [0,0,…] would otherwise build some
   330 MB of list (the largest line this program writes, a response with
   4 096 inline trace events, holds about 50 000) *)
let max_values = 1 lsl 17

exception Malformed

let parse line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else raise Malformed in
  let expect c = if peek () = c then incr pos else raise Malformed in
  (* consume one byte when it is one of [chars] *)
  let opt chars =
    !pos < n && String.contains chars line.[!pos] && (incr pos; true)
  in
  let skip_ws () = while opt " \t\n\r" do () done in
  let digits () =
    let start = !pos in
    while opt "0123456789" do () done;
    if !pos = start then raise Malformed
  in
  let keyword word v =
    let k = String.length word in
    if k > n - !pos || String.sub line !pos k <> word then raise Malformed;
    pos := !pos + k;
    v
  in
  let hex4 () =
    let h = if n - !pos >= 4 then String.sub line !pos 4 else raise Malformed in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v when not (String.contains h '_') -> v
    | _ -> raise Malformed
  in
  (* after the opening quote.  Bytes that need no decoding are copied as
     they are, a run at a time, so any byte string [json_escape] wrote —
     non-UTF-8 bytes included — comes back unchanged *)
  let plain () =
    while
      !pos < n
      &&
      let c = line.[!pos] in
      c <> '"' && c <> '\\' && Char.code c >= 0x20
    do
      incr pos
    done
  in
  let string_ () =
    let start = !pos in
    plain ();
    if peek () = '"' then begin
      incr pos;
      String.sub line start (!pos - 1 - start)
    end
    else
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      let rec run start =
        plain ();
        Buffer.add_substring buf line start (!pos - start);
        match peek () with
        | '"' ->
            incr pos;
            Buffer.contents buf
        | '\\' ->
            incr pos;
            let e = peek () in
            incr pos;
            (match e with
            | '"' | '\\' | '/' -> Buffer.add_char buf e
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let u = hex4 () in
                let code =
                  if u land 0xFC00 <> 0xD800 then u
                  else begin
                    (* a high surrogate pairs with the low one after it *)
                    expect '\\';
                    expect 'u';
                    let lo = hex4 () in
                    if lo land 0xFC00 <> 0xDC00 then raise Malformed;
                    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                  end
                in
                (* a lone low surrogate is no character *)
                if not (Uchar.is_valid code) then raise Malformed;
                Buffer.add_utf_8_uchar buf (Uchar.of_int code)
            | _ -> raise Malformed);
            run !pos
        | _ -> raise Malformed (* a raw control byte *)
      in
      run start
  in
  let number () =
    let start = !pos in
    ignore (opt "-");
    if not (opt "0") then digits ();
    if opt "." then digits ();
    if opt "eE" then begin
      ignore (opt "+-");
      digits ()
    end;
    Number (String.sub line start (!pos - start))
  in
  (* the items up to [close], separated by commas *)
  let sequence close item =
    skip_ws ();
    if opt close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if opt "," then begin
          skip_ws ();
          go acc
        end
        else begin
          expect close.[0];
          List.rev acc
        end
      in
      go []
  in
  let values = ref 0 in
  let rec value depth =
    incr values;
    if !values > max_values then raise Malformed;
    match peek () with
    | ('{' | '[') when depth >= max_depth -> raise Malformed
    | '{' ->
        incr pos;
        Object
          (sequence "}" (fun () ->
               expect '"';
               let k = string_ () in
               skip_ws ();
               expect ':';
               skip_ws ();
               (k, value (depth + 1))))
    | '[' ->
        incr pos;
        Array (sequence "]" (fun () -> value (depth + 1)))
    | '"' ->
        incr pos;
        String (string_ ())
    | 't' -> keyword "true" (Bool true)
    | 'f' -> keyword "false" (Bool false)
    | 'n' -> keyword "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> raise Malformed
  in
  try
    skip_ws ();
    let v = value 0 in
    skip_ws ();
    if !pos = n then Some v else None
  with Malformed -> None

(* document order: a member's own value is searched before the members
   after it *)
let rec find t key =
  match t with
  | Object members ->
      List.find_map
        (fun (k, v) -> if String.equal k key then Some v else find v key)
        members
  | Array items -> List.find_map (fun v -> find v key) items
  | Null | Bool _ | Number _ | String _ -> None

let to_string = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_int = function Number s -> int_of_string_opt s | _ -> None
let to_float = function Number s -> float_of_string_opt s | _ -> None

let field conv line key =
  Option.bind (parse line) (fun t -> Option.bind (find t key) conv)

let string_field = field to_string
let int_field = field to_int
let float_field = field to_float

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
