exception Parse_error of string

type cls_item = Range of char * char | Single of char

type node =
  | Empty
  | Char of char
  | Any
  | Class of bool * cls_item list  (* negated?, items *)
  | Seq of node list
  | Alt of node list
  | Repeat of node * int * int option * bool  (* node, min, max, greedy *)
  | Group of int * node  (* capture index *)
  | NonCap of node
  | Bol
  | Eol
  | WordBoundary
  | NotWordBoundary
  | Backref of int

type t = {
  node : node;
  group_count : int;
  case_insensitive : bool;
  literal : string option;
      (** the pattern is a plain character sequence (no groups, classes,
          anchors or quantifiers): matched by a direct scan, not [exec] *)
}

(* ---------- parser ---------- *)

type parser_state = {
  pat : string;
  mutable pos : int;
  mutable groups : int;
}

let peek st = if st.pos < String.length st.pat then Some st.pat.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let eat st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> raise (Parse_error (Printf.sprintf "expected %C at %d" c st.pos))

let digit_escape_class = function
  | 'd' -> Some (false, [ Range ('0', '9') ])
  | 'D' -> Some (true, [ Range ('0', '9') ])
  | 'w' ->
      Some (false, [ Range ('a', 'z'); Range ('A', 'Z'); Range ('0', '9'); Single '_' ])
  | 'W' ->
      Some (true, [ Range ('a', 'z'); Range ('A', 'Z'); Range ('0', '9'); Single '_' ])
  | 's' -> Some (false, [ Single ' '; Single '\t'; Single '\n'; Single '\r'; Single '\012' ])
  | 'S' -> Some (true, [ Single ' '; Single '\t'; Single '\n'; Single '\r'; Single '\012' ])
  | _ -> None

let control_escape = function
  | 'n' -> Some '\n'
  | 'r' -> Some '\r'
  | 't' -> Some '\t'
  | 'f' -> Some '\012'
  | 'v' -> Some '\011'
  | '0' -> Some '\000'
  | 'a' -> Some '\007'
  | 'e' -> Some '\027'
  | _ -> None

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise (Parse_error "invalid hex digit in \\x escape")

let parse_escape st =
  match peek st with
  | None -> raise (Parse_error "trailing backslash")
  | Some c -> (
      advance st;
      match c with
      | 'b' -> `Node WordBoundary
      | 'B' -> `Node NotWordBoundary
      | '1' .. '9' -> `Node (Backref (Char.code c - Char.code '0'))
      | 'x' ->
          let h1 = match peek st with Some c -> advance st; c | None -> raise (Parse_error "truncated \\x") in
          let h2 = match peek st with Some c -> advance st; c | None -> raise (Parse_error "truncated \\x") in
          `Char (Char.chr ((hex_value h1 * 16) + hex_value h2))
      | c -> (
          match digit_escape_class c with
          | Some (neg, items) -> `Node (Class (neg, items))
          | None -> (
              match control_escape c with
              | Some ch -> `Char ch
              | None -> `Char c)))

let parse_class st =
  (* '[' already consumed *)
  let negated =
    match peek st with
    | Some '^' -> advance st; true
    | _ -> false
  in
  let items = ref [] in
  let add i = items := i :: !items in
  let rec loop first =
    match peek st with
    | None -> raise (Parse_error "unterminated character class")
    | Some ']' when not first -> advance st
    | Some c ->
        advance st;
        let c =
          if c = '\\' then
            match parse_escape st with
            | `Char ch -> `Lit ch
            | `Node (Class (neg, sub)) ->
                if neg then raise (Parse_error "negated escape inside class unsupported");
                List.iter add sub;
                `Class
            | `Node _ -> raise (Parse_error "invalid escape inside class")
          else `Lit c
        in
        (match c with
        | `Class -> ()
        | `Lit lo -> (
            match peek st with
            | Some '-' when st.pos + 1 < String.length st.pat && st.pat.[st.pos + 1] <> ']' ->
                advance st;
                let hi =
                  match peek st with
                  | Some '\\' ->
                      advance st;
                      (match parse_escape st with
                      | `Char ch -> ch
                      | `Node _ -> raise (Parse_error "invalid range bound"))
                  | Some ch -> advance st; ch
                  | None -> raise (Parse_error "unterminated character class")
                in
                if hi < lo then raise (Parse_error "inverted class range");
                add (Range (lo, hi))
            | _ -> add (Single lo)));
        loop false
  in
  loop true;
  Class (negated, List.rev !items)

let parse_int st =
  let start = st.pos in
  while (match peek st with Some ('0' .. '9') -> true | _ -> false) do
    advance st
  done;
  if st.pos = start then None
  else Some (int_of_string (String.sub st.pat start (st.pos - start)))

let rec parse_alt st =
  let first = parse_seq st in
  let rec loop acc =
    match peek st with
    | Some '|' ->
        advance st;
        loop (parse_seq st :: acc)
    | _ -> List.rev acc
  in
  match loop [ first ] with [ x ] -> x | xs -> Alt xs

and parse_seq st =
  let rec loop acc =
    match peek st with
    | None | Some '|' | Some ')' -> (
        match List.rev acc with [] -> Empty | [ x ] -> x | xs -> Seq xs)
    | Some _ ->
        let atom = parse_atom st in
        let atom = parse_quantifier st atom in
        loop (atom :: acc)
  in
  loop []

and parse_atom st =
  match peek st with
  | None -> raise (Parse_error "unexpected end of pattern")
  | Some '(' ->
      advance st;
      let node =
        if peek st = Some '?' then begin
          advance st;
          match peek st with
          | Some ':' ->
              advance st;
              NonCap (parse_alt st)
          | Some '=' | Some '!' | Some '<' ->
              raise (Parse_error "lookaround not supported")
          | _ -> raise (Parse_error "unsupported group modifier")
        end
        else begin
          st.groups <- st.groups + 1;
          let idx = st.groups in
          Group (idx, parse_alt st)
        end
      in
      eat st ')';
      node
  | Some '[' ->
      advance st;
      parse_class st
  | Some '.' ->
      advance st;
      Any
  | Some '^' ->
      advance st;
      Bol
  | Some '$' ->
      advance st;
      Eol
  | Some '\\' -> (
      advance st;
      match parse_escape st with `Char c -> Char c | `Node n -> n)
  | Some (('*' | '+' | '?') as c) ->
      raise (Parse_error (Printf.sprintf "dangling quantifier %C" c))
  | Some ')' -> raise (Parse_error "unbalanced ')'")
  | Some c ->
      advance st;
      Char c

and parse_quantifier st atom =
  let quantified min max =
    let greedy =
      match peek st with
      | Some '?' -> advance st; false
      | _ -> true
    in
    Repeat (atom, min, max, greedy)
  in
  match peek st with
  | Some '*' -> advance st; quantified 0 None
  | Some '+' -> advance st; quantified 1 None
  | Some '?' -> advance st; quantified 0 (Some 1)
  | Some '{' -> (
      (* Only treat as quantifier if it parses as {n}, {n,}, {n,m};
         otherwise .NET treats '{' as a literal. *)
      let saved = st.pos in
      advance st;
      match parse_int st with
      | None ->
          st.pos <- saved;
          atom
      | Some lo -> (
          match peek st with
          | Some '}' ->
              advance st;
              quantified lo (Some lo)
          | Some ',' -> (
              advance st;
              let hi = parse_int st in
              match peek st with
              | Some '}' ->
                  advance st;
                  (match hi with
                  | Some h when h < lo -> raise (Parse_error "inverted {n,m}")
                  | _ -> ());
                  quantified lo hi
              | _ ->
                  st.pos <- saved;
                  atom)
          | _ ->
              st.pos <- saved;
              atom))
  | _ -> atom

let compile ?(case_insensitive = true) pat =
  let st = { pat; pos = 0; groups = 0 } in
  let node = parse_alt st in
  if st.pos <> String.length pat then
    raise (Parse_error (Printf.sprintf "unexpected %C at %d" pat.[st.pos] st.pos));
  let literal =
    match node with
    | Char c -> Some (String.make 1 c)
    | Seq nodes
      when List.for_all (function Char _ -> true | _ -> false) nodes ->
        Some
          (String.concat ""
             (List.map (function Char c -> String.make 1 c | _ -> "") nodes))
    | _ -> None
  in
  { node; group_count = st.groups; case_insensitive; literal }

let compile_opt ?case_insensitive pat =
  match compile ?case_insensitive pat with
  | t -> Ok t
  | exception Parse_error msg -> Error msg

(* ---------- matcher ---------- *)

type group = { g_start : int; g_stop : int }

type match_result = { m_start : int; m_stop : int; groups : group array }

let is_word_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let char_eq ci a b =
  if ci then Char.lowercase_ascii a = Char.lowercase_ascii b else a = b

let class_matches ci (negated, items) c =
  let test c =
    List.exists
      (fun item ->
        match item with
        | Single x -> x = c
        | Range (lo, hi) -> lo <= c && c <= hi)
      items
  in
  let hit = if ci then test (Char.lowercase_ascii c) || test (Char.uppercase_ascii c) else test c in
  hit <> negated

(* One search's matcher steps (see the interface), reported to [charge]
   in whole batches of 64 *)
type meter = { mutable steps : int; charge : (int -> unit) option }

let count m n =
  let before = m.steps in
  m.steps <- before + n;
  match m.charge with
  | Some charge when m.steps lsr 6 > before lsr 6 ->
      charge (((m.steps lsr 6) - (before lsr 6)) lsl 6)
  | Some _ | None -> ()

(* groups: (start, stop) array; -1 when unset.  Backtracking via CPS. *)
let exec m t subject start_pos =
  let n = String.length subject in
  let ci = t.case_insensitive in
  let gstarts = Array.make (t.group_count + 1) (-1) in
  let gstops = Array.make (t.group_count + 1) (-1) in
  count m 2;
  let limit = if Option.is_none m.charge then m.steps + 2_000_000 else max_int in
  let rec match_node node pos (k : int -> bool) =
    count m 1;
    if m.steps > limit then false
    else
      match node with
      | Empty -> k pos
      | Char c -> pos < n && char_eq ci c subject.[pos] && k (pos + 1)
      | Any -> pos < n && subject.[pos] <> '\n' && k (pos + 1)
      | Class (neg, items) ->
          pos < n && class_matches ci (neg, items) subject.[pos] && k (pos + 1)
      | Seq nodes ->
          let rec seq nodes pos k =
            match nodes with
            | [] -> k pos
            | x :: rest -> match_node x pos (fun pos' -> seq rest pos' k)
          in
          seq nodes pos k
      | Alt alts -> List.exists (fun a -> match_node a pos k) alts
      | NonCap inner -> match_node inner pos k
      | Group (idx, inner) ->
          let saved_start = gstarts.(idx) and saved_stop = gstops.(idx) in
          let entry = pos in
          let ok =
            match_node inner pos (fun pos' ->
                gstarts.(idx) <- entry;
                gstops.(idx) <- pos';
                k pos')
          in
          if not ok then begin
            gstarts.(idx) <- saved_start;
            gstops.(idx) <- saved_stop
          end;
          ok
      | Bol -> (pos = 0 || subject.[pos - 1] = '\n') && k pos
      | Eol -> (pos = n || subject.[pos] = '\n') && k pos
      | WordBoundary ->
          let before = pos > 0 && is_word_char subject.[pos - 1] in
          let after = pos < n && is_word_char subject.[pos] in
          before <> after && k pos
      | NotWordBoundary ->
          let before = pos > 0 && is_word_char subject.[pos - 1] in
          let after = pos < n && is_word_char subject.[pos] in
          before = after && k pos
      | Backref idx ->
          if idx > t.group_count then false
          else
            let gs = gstarts.(idx) and ge = gstops.(idx) in
            if gs < 0 then k pos (* unset backref matches empty, like .NET *)
            else
              let len = ge - gs in
              pos + len <= n
              &&
              let rec eq i = i = len || (char_eq ci subject.[gs + i] subject.[pos + i] && eq (i + 1)) in
              eq 0 && k (pos + len)
      | Repeat (inner, min_rep, max_rep, greedy) ->
          let max_rep = match max_rep with Some m -> m | None -> max_int in
          (* match exactly [count] then continue; greedy tries more first *)
          let rec go count pos =
            let can_more = count < max_rep in
            let try_more () =
              can_more
              && match_node inner pos (fun pos' ->
                     (* zero-width progress guard *)
                     if pos' = pos && count >= min_rep then false else go (count + 1) pos')
            in
            let try_stop () = count >= min_rep && k pos in
            if greedy then try_more () || try_stop ()
            else try_stop () || try_more ()
          in
          go 0 pos
  in
  let ok = match_node t.node start_pos (fun pos -> gstarts.(0) <- start_pos; gstops.(0) <- pos; true) in
  if ok then
    Some
      {
        m_start = gstarts.(0);
        m_stop = gstops.(0);
        groups =
          Array.init (t.group_count + 1) (fun i ->
              { g_start = gstarts.(i); g_stop = gstops.(i) });
      }
  else None

(* ---------- literal scan ---------- *)

(* A literal pattern matches at [pos] exactly when [exec] would: [exec]
   walks the same [Char] nodes with the same [char_eq], and a literal
   can neither backtrack nor exhaust a position's budget.  The scans below
   therefore find the same matches without the per-position group arrays,
   continuation closures and match records. *)
let rec literal_at ci lit subject pos i len =
  i = len
  || char_eq ci (String.unsafe_get lit i) (String.unsafe_get subject (pos + i))
     && literal_at ci lit subject pos (i + 1) len

(* offset of the first match at or after [pos], or -1 *)
let rec literal_index ci lit subject pos =
  if pos + String.length lit > String.length subject then -1
  else if literal_at ci lit subject pos 0 (String.length lit) then pos
  else literal_index ci lit subject (pos + 1)

(* A search charges one step per two offsets it scanned, up to the match
   or the end of the subject *)
let charge_scan m pos i subject =
  let stop = if i < 0 then String.length subject else i in
  count m (Int.max 0 (stop - pos) / 2)

let literal_search m ci lit subject pos =
  let i = literal_index ci lit subject pos in
  charge_scan m pos i subject;
  i

(* A one-character literal [c] is found by comparing bytes: [char_eq ci c]
   holds of exactly [lo] and [up], the two cases of [c] (one byte when [c]
   has no case or the search is case-sensitive). *)
let rec byte_index lo up subject pos n =
  if pos >= n then -1
  else
    let b = String.unsafe_get subject pos in
    if b = lo || b = up then pos else byte_index lo up subject (pos + 1) n

let literal_match start len =
  { m_start = start; m_stop = start + len;
    groups = [| { g_start = start; g_stop = start + len } |] }

let find_with meter ~start t subject =
  match t.literal with
  | Some lit ->
      let i = literal_search meter t.case_insensitive lit subject (Int.max 0 start) in
      if i < 0 then None else Some (literal_match i (String.length lit))
  | None ->
      let n = String.length subject in
      let rec scan pos = if pos > n then None else match exec meter t subject pos with Some m -> Some m | None -> scan (pos + 1) in
      scan (Int.max 0 start)

let find ?(start = 0) t subject =
  find_with { steps = 0; charge = None } ~start t subject

let all_matches meter t subject =
  let n = String.length subject in
  let rec loop pos acc =
    if pos > n then List.rev acc
    else
      match find_with meter ~start:pos t subject with
      | None -> List.rev acc
      | Some m ->
          let next = if m.m_stop = m.m_start then m.m_stop + 1 else m.m_stop in
          loop next (m :: acc)
  in
  loop 0 []

let find_all t subject = all_matches { steps = 0; charge = None } t subject

let is_match ?charge t subject =
  Option.is_some (find_with { steps = 0; charge } ~start:0 t subject)

let matched_text subject m = String.sub subject m.m_start (m.m_stop - m.m_start)

let group_text subject m i =
  if i < 0 || i >= Array.length m.groups then None
  else
    let g = m.groups.(i) in
    if g.g_start < 0 then None else Some (String.sub subject g.g_start (g.g_stop - g.g_start))

(* [template] expanded for match [m], appended to [buf] *)
let add_template buf subject m template =
  let add_group g =
    if g >= 0 && g < Array.length m.groups then
      let gr = m.groups.(g) in
      if gr.g_start >= 0 then
        Buffer.add_substring buf subject gr.g_start (gr.g_stop - gr.g_start)
  in
  let n = String.length template in
  let rec loop i =
    if i >= n then ()
    else if template.[i] = '$' && i + 1 < n then begin
      match template.[i + 1] with
      | '$' ->
          Buffer.add_char buf '$';
          loop (i + 2)
      | '&' ->
          Buffer.add_substring buf subject m.m_start (m.m_stop - m.m_start);
          loop (i + 2)
      | '0' .. '9' as c ->
          add_group (Char.code c - Char.code '0');
          loop (i + 2)
      | '{' -> (
          match String.index_from_opt template (i + 2) '}' with
          | Some close -> (
              match int_of_string_opt (String.sub template (i + 2) (close - i - 2)) with
              | Some g ->
                  add_group g;
                  loop (close + 1)
              | None ->
                  Buffer.add_char buf '$';
                  loop (i + 1))
          | None ->
              Buffer.add_char buf '$';
              loop (i + 1))
      | _ ->
          Buffer.add_char buf '$';
          loop (i + 1)
    end
    else begin
      Buffer.add_char buf template.[i];
      loop (i + 1)
    end
  in
  loop 0

(* Each match is written out as it is found, by [add buf subject m]; the
   searches are those of [all_matches], in the same order. *)
let substitute meter t ~add subject =
  let n = String.length subject in
  let buf = Buffer.create n in
  (* [pos]: end of the text already written; [search]: where the next
     match may start, one past an empty match *)
  let rec loop pos search =
    if search > n then pos
    else
      match find_with meter ~start:search t subject with
      | None -> pos
      | Some m ->
          Buffer.add_substring buf subject pos (m.m_start - pos);
          add buf subject m;
          loop m.m_stop (if m.m_stop = m.m_start then m.m_stop + 1 else m.m_stop)
  in
  let pos = loop 0 0 in
  Buffer.add_substring buf subject pos (n - pos);
  Buffer.contents buf

let replace_f t ~f subject =
  substitute { steps = 0; charge = None } t
    ~add:(fun buf subj m -> Buffer.add_string buf (f subj m))
    subject

let replace ?charge t ~template subject =
  substitute { steps = 0; charge } t
    ~add:(fun buf subj m -> add_template buf subj m template)
    subject

(* Fields are cut into chunks of 8, 16, 32 and then 64 on the minor heap,
   then gathered into one array of the exact size: no list cell per field,
   no reversal, and only the result can be large.  The gather copies
   ([Array.concat]); making the result with [Array.make] from a field, a
   young value, would make the runtime empty the minor heap first
   whenever the result is longer than 256 words. *)
type 'a fields = {
  mutable full : 'a array list;  (* filled chunks, newest first *)
  mutable chunk : 'a array;  (* the chunk being filled *)
  mutable k : int;  (* fields in [chunk] *)
  mutable count : int;
}

let add_field fs v =
  if fs.k = Array.length fs.chunk then begin
    if fs.k > 0 then fs.full <- fs.chunk :: fs.full;
    fs.chunk <- Array.make (Int.min 64 (Int.max 8 (2 * fs.k))) v;
    fs.k <- 0
  end;
  Array.unsafe_set fs.chunk fs.k v;
  fs.k <- fs.k + 1;
  fs.count <- fs.count + 1

let fields_array fs =
  let last = Array.sub fs.chunk 0 fs.k in
  match fs.full with [] -> last | full -> Array.concat (List.rev (last :: full))

(* The fields between the matches [find_all] would return, each passed
   through [f].  With [limit] = k > 0, at most k fields: after k - 1
   separators the rest of the subject is the last field, verbatim.  A
   one-character literal is found byte by byte. *)
let split_map ?(limit = 0) ?charge ~f t subject =
  let meter = { steps = 0; charge } in
  let n = String.length subject in
  let fs = { full = []; chunk = [||]; k = 0; count = 0 } in
  let cut pos stop = add_field fs (f (String.sub subject pos (stop - pos))) in
  (* [pos]: start of the current field; [search]: where the next match may
     start, one past an empty match *)
  let rec loop pos search =
    if fs.count = limit - 1 || search > n then cut pos n
    else
      match find_with meter ~start:search t subject with
      | None -> cut pos n
      | Some m ->
          cut pos m.m_start;
          loop m.m_stop (if m.m_stop = m.m_start then m.m_stop + 1 else m.m_stop)
  in
  (* a literal cannot match empty: each search starts where the previous
     match ended *)
  let rec literal_loop ci lit pos =
    if fs.count = limit - 1 then cut pos n
    else
      let i = literal_search meter ci lit subject pos in
      if i < 0 then cut pos n
      else begin
        cut pos i;
        literal_loop ci lit (i + String.length lit)
      end
  in
  let rec byte_loop lo up pos =
    if fs.count = limit - 1 then cut pos n
    else
      let i = byte_index lo up subject pos n in
      charge_scan meter pos i subject;
      if i < 0 then cut pos n
      else begin
        cut pos i;
        byte_loop lo up (i + 1)
      end
  in
  (match t.literal with
  | Some lit when String.length lit = 1 ->
      let c = String.unsafe_get lit 0 in
      if t.case_insensitive then
        byte_loop (Char.lowercase_ascii c) (Char.uppercase_ascii c) 0
      else byte_loop c c 0
  | Some lit -> literal_loop t.case_insensitive lit 0
  | None -> loop 0 0);
  fields_array fs

let split ?limit ?charge t subject =
  Array.to_list (split_map ?limit ?charge ~f:Fun.id t subject)

let quote s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      (match c with
      | '\\' | '^' | '$' | '.' | '|' | '?' | '*' | '+' | '(' | ')' | '[' | ']' | '{' | '}' ->
          Buffer.add_char buf '\\'
      | _ -> ());
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
