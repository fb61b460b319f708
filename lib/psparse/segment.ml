(** Statement-boundary segmentation of unparseable scripts; interface
    documentation in segment.mli. *)

type kind = Parseable | Opaque | Binary

type region = { start : int; stop : int; kind : kind }

(* ---------- sync-point scanner ----------

   A lightweight single-pass state machine, deliberately independent of the
   lexer: it must keep walking through exactly the inputs the lexer rejects.
   It understands enough surface syntax — quoting, here-strings, comments,
   backtick escapes, bracket depth — to know when a newline or ';' really
   ends a statement. *)

type scan_state =
  | Code
  | Single_quoted
  | Double_quoted
  | Single_here  (* @' ... '@ at line start *)
  | Double_here  (* @" ... "@ at line start *)
  | Line_comment
  | Block_comment

let sync_points_gen ~ignore_depth src =
  let n = String.length src in
  let pts = ref [ 0 ] in
  let depth = ref 0 in
  let state = ref Code in
  let i = ref 0 in
  let at c k = !i + k < n && src.[!i + k] = c in
  while !i < n do
    let c = src.[!i] in
    (match !state with
    | Code -> (
        match c with
        | '`' -> incr i (* escape: skip the next char *)
        | '\'' -> state := Single_quoted
        | '"' -> state := Double_quoted
        | '@' when at '\'' 1 -> state := Single_here
        | '@' when at '"' 1 -> state := Double_here
        | '$' when at '{' 1 ->
            (* braced variable ${...}: the name may contain '#', quotes or
               brackets, none of which affect surrounding structure — skip
               to the closing '}' (names cannot span lines) *)
            let j = ref (!i + 2) in
            while !j < n && src.[!j] <> '}' && src.[!j] <> '\n' do incr j done;
            if !j < n && src.[!j] = '}' then i := !j
        | '<' when at '#' 1 -> state := Block_comment
        | '#' -> state := Line_comment
        | '(' | '[' | '{' -> incr depth
        | ')' | ']' | '}' -> if !depth > 0 then decr depth
        | '\n' | ';' ->
            if ignore_depth || !depth = 0 then pts := (!i + 1) :: !pts
        | _ -> ())
    | Single_quoted ->
        if c = '\'' then
          if at '\'' 1 then incr i (* '' escape *) else state := Code
    | Double_quoted -> (
        match c with
        | '`' -> incr i
        | '"' -> if at '"' 1 then incr i (* "" escape *) else state := Code
        | _ -> ())
    | Single_here ->
        (* terminator must sit at the start of a line *)
        if c = '\'' && at '@' 1 && (!i = 0 || src.[!i - 1] = '\n') then begin
          state := Code;
          incr i
        end
    | Double_here ->
        if c = '"' && at '@' 1 && (!i = 0 || src.[!i - 1] = '\n') then begin
          state := Code;
          incr i
        end
    | Line_comment ->
        if c = '\n' then begin
          state := Code;
          if ignore_depth || !depth = 0 then pts := (!i + 1) :: !pts
        end
    | Block_comment -> if c = '#' && at '>' 1 then begin state := Code; incr i end);
    incr i
  done;
  let pts = if List.hd !pts = n then !pts else n :: !pts in
  List.sort_uniq compare pts

let sync_points src = sync_points_gen ~ignore_depth:false src

(* ---------- chunk classification ---------- *)

let is_binary_text s =
  String.contains s '\000'
  ||
  let bad = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '\t' | '\n' | '\r' -> ()
      | c when Char.code c < 0x20 || Char.code c >= 0x7f -> incr bad
      | _ -> ())
    s;
  String.length s > 0 && float_of_int !bad /. float_of_int (String.length s) > 0.3

let is_blank s = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r') s

(* ---------- segmentation ---------- *)

let segment ?(max_attempts = 512) src =
  let n = String.length src in
  if n = 0 then []
  else begin
    let attempts = ref 0 in
    let try_parse text =
      if !attempts >= max_attempts then false
      else begin
        incr attempts;
        (* contained: a chunk whose parse overflows the stack (or trips an
           ambient deadline) is simply not parseable *)
        match Pscommon.Guard.protect (fun () -> Parser.is_valid_syntax text) with
        | Ok ok -> ok
        | Error _ -> false
      end
    in
    (* chunks between consecutive sync points, each pre-classified *)
    let rec chunks = function
      | a :: (b :: _ as rest) ->
          if b > a then (a, b) :: chunks rest else chunks rest
      | _ -> []
    in
    let chunk_kind (a, b) =
      let text = String.sub src a (b - a) in
      if is_binary_text text then Binary
      else if is_blank text || try_parse text then Parseable
      else Opaque
    in
    (* coalesce a run of individually-parseable chunks into maximal regions
       whose concatenation still parses, splitting recursively when a merge
       fails (e.g. a statement pair severed by a truncated here-string) *)
    let rec coalesce run =
      match run with
      | [] -> []
      | [ (a, b) ] -> [ { start = a; stop = b; kind = Parseable } ]
      | _ ->
          let a = fst (List.hd run) in
          let b = snd (List.nth run (List.length run - 1)) in
          if try_parse (String.sub src a (b - a)) then
            [ { start = a; stop = b; kind = Parseable } ]
          else
            let half = List.length run / 2 in
            let left = List.filteri (fun i _ -> i < half) run in
            let right = List.filteri (fun i _ -> i >= half) run in
            coalesce left @ coalesce right
    in
    let rec group acc current = function
      | [] -> (
          match current with
          | None -> List.rev acc
          | Some (run, _) -> List.rev (List.rev (coalesce (List.rev run)) @ acc))
      | ((a, b), kind) :: rest -> (
          match (kind, current) with
          | Parseable, Some (run, ()) -> group acc (Some ((a, b) :: run, ())) rest
          | Parseable, None -> group acc (Some ([ (a, b) ], ())) rest
          | (Opaque | Binary), cur ->
              let acc =
                match cur with
                | Some (run, ()) -> List.rev (coalesce (List.rev run)) @ acc
                | None -> acc
              in
              group ({ start = a; stop = b; kind } :: acc) None rest)
    in
    (* segment the byte range [a0, b0): sync points on the slice, shifted
       back to absolute offsets *)
    let segment_range ~ignore_depth (a0, b0) =
      let pts =
        List.map
          (fun p -> p + a0)
          (sync_points_gen ~ignore_depth (String.sub src a0 (b0 - a0)))
      in
      let classified = List.map (fun c -> (c, chunk_kind c)) (chunks pts) in
      group [] None classified
    in
    let regions = segment_range ~ignore_depth:false (0, n) in
    (* refinement pass: inside an opaque or binary region, bracket depth is
       not to be trusted — an unbalanced opener in the damage would
       otherwise swallow every later statement into one unparseable span.
       Re-split the region at quote-aware newlines ignoring depth; keep the
       refinement only if it actually surfaces a parseable sub-region. *)
    let regions =
      List.concat_map
        (fun r ->
          if r.kind = Parseable || !attempts >= max_attempts then [ r ]
          else
            let subs = segment_range ~ignore_depth:true (r.start, r.stop) in
            let recovers s =
              s.kind = Parseable
              && not (is_blank (String.sub src s.start (s.stop - s.start)))
            in
            if List.exists recovers subs then subs else [ r ])
        regions
    in
    (* demote whitespace-only "parseable" regions: nothing to recover *)
    let regions =
      List.map
        (fun r ->
          if r.kind = Parseable && is_blank (String.sub src r.start (r.stop - r.start))
          then { r with kind = Opaque }
          else r)
        regions
    in
    (* merge adjacent same-kind regions so passthrough spans stay whole *)
    let rec merge = function
      | a :: b :: rest when a.kind = b.kind && a.stop = b.start ->
          merge ({ start = a.start; stop = b.stop; kind = a.kind } :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    merge regions
  end
