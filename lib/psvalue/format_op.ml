(** The [-f] format operator.

    Implements .NET composite formatting far enough for obfuscation:
    [{index}], [{index,alignment}], [{index:format}] with [D]/[X]/[N]
    numeric formats, and [{{]/[}}] escapes.  String reordering obfuscation
    ("{2}{0}{1}" -f ...) is the paper's canonical L2 technique. *)

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

let apply_numeric_format spec (v : Value.t) =
  if spec = "" then Value.to_string v
  else
    let kind = Char.uppercase_ascii spec.[0] in
    let zero_pad width s =
      if String.length s >= width then s
      else String.make (width - String.length s) '0' ^ s
    in
    let width =
      if String.length spec > 1 then
        match int_of_string_opt (String.sub spec 1 (String.length spec - 1)) with
        | Some w -> w
        | None -> 0
      else 0
    in
    match kind with
    | 'D' -> zero_pad width (string_of_int (Value.to_int v))
    | 'X' ->
        (* .NET renders a negative integer in two's complement of its
           type: 32 bits for an Int32, 64 for an Int64 *)
        let n = Value.to_int v in
        let s =
          if n < 0 && n >= -0x8000_0000 then
            Printf.sprintf "%X" (n land 0xFFFF_FFFF)
          else Printf.sprintf "%LX" (Int64.of_int n)
        in
        zero_pad width (if spec.[0] = 'x' then String.lowercase_ascii s else s)
    | 'N' ->
        let decimals = if String.length spec > 1 then width else 2 in
        Printf.sprintf "%.*f" decimals (Value.to_float v)
    | _ -> Value.to_string v

let pad alignment s =
  let w = abs alignment in
  if String.length s >= w then s
  else if alignment > 0 then String.make (w - String.length s) ' ' ^ s
  else s ^ String.make (w - String.length s) ' '

let format template (args : Value.t list) =
  let arg i =
    match List.nth_opt args i with
    | Some v -> v
    | None -> fail "format index %d out of range (have %d args)" i (List.length args)
  in
  let buf = Buffer.create (String.length template) in
  let n = String.length template in
  let rec loop i =
    if i >= n then ()
    else
      match template.[i] with
      | '{' when i + 1 < n && template.[i + 1] = '{' ->
          Buffer.add_char buf '{';
          loop (i + 2)
      | '}' when i + 1 < n && template.[i + 1] = '}' ->
          Buffer.add_char buf '}';
          loop (i + 2)
      | '{' -> (
          match String.index_from_opt template i '}' with
          | None -> fail "unclosed '{' in format string"
          | Some close ->
              let body = String.sub template (i + 1) (close - i - 1) in
              let index_part, align_part, fmt_part =
                let before_fmt, fmt_part =
                  match String.index_opt body ':' with
                  | Some c ->
                      (String.sub body 0 c,
                       String.sub body (c + 1) (String.length body - c - 1))
                  | None -> (body, "")
                in
                match String.index_opt before_fmt ',' with
                | Some c ->
                    (String.sub before_fmt 0 c,
                     String.sub before_fmt (c + 1) (String.length before_fmt - c - 1),
                     fmt_part)
                | None -> (before_fmt, "", fmt_part)
              in
              let index =
                match int_of_string_opt (String.trim index_part) with
                | Some i when i >= 0 -> i
                | _ -> fail "bad format item {%s}" body
              in
              let rendered =
                let v = arg index in
                if fmt_part = "" then Value.to_string v
                else apply_numeric_format fmt_part v
              in
              let rendered =
                match int_of_string_opt (String.trim align_part) with
                | Some a when align_part <> "" -> pad a rendered
                | _ -> rendered
              in
              Buffer.add_string buf rendered;
              loop (close + 1))
      | c ->
          Buffer.add_char buf c;
          loop (i + 1)
  in
  loop 0;
  Buffer.contents buf
