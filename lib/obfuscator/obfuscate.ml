(** Top-level obfuscation driver: single techniques, multi-layer
    composition, and the wild-style mixes corpus generation uses. *)

open Pscommon

(** Apply one technique to a whole script.  Always returns a syntactically
    valid script when the input is valid (L1/L2 are patch-based; L3 wraps). *)
let apply rng technique script =
  if List.mem technique Technique.dynamic then Dyn.apply rng technique script
  else
  match Technique.level technique with
  | 1 -> (
      match technique with
      | Technique.Ticking -> L1.ticking rng script
      | Technique.Whitespacing -> L1.whitespacing rng script
      | Technique.Random_case -> L1.random_case rng script
      | Technique.Random_name -> L1.random_name rng script
      | Technique.Alias_sub -> L1.alias_sub rng script
      | _ -> assert false)
  | 2 -> L2.apply rng technique script
  | _ -> L3.apply rng technique script

(** Obfuscated {e piece} for the deobfuscation-ability experiment
    (Table II): the base command rendered with exactly one technique.  L1
    application retries until the technique visibly fired; L3 wrappers use
    obfuscated launcher spellings, as Invoke-Obfuscation's launchers do. *)
let piece rng technique base_command =
  if List.mem technique Technique.dynamic then
    (* the assembly runs as a preamble; the final bare [$v] is the piece
       proper, so the caller can place it in assignment or pipe position *)
    Dyn.statements rng technique ~src:base_command ~var:"v" base_command
    ^ "\n$v"
  else
  match Technique.level technique with
  | 1 ->
      let rec go tries =
        let out = apply rng technique base_command in
        if String.equal out base_command && tries > 0 then go (tries - 1)
        else out
      in
      go 8
  | 2 ->
      (* the piece is a string expression recovering the command text *)
      L2.string_expr rng technique base_command
  | _ -> L3.apply ~launcher:`Obfuscated ~indirect:true rng technique base_command

(** A wild-style sample: random techniques at each level following the
    paper's Table I distribution (98% L1, 98% L2, 96% L3 of wild samples). *)
let wild_mix ?(p_l1 = 0.98) ?(p_l2 = 0.98) ?(p_l3 = 0.96) ?launcher rng script =
  let applied = ref [] in
  let use t =
    applied := t :: !applied;
    t
  in
  (* apply a technique from [pool], retrying with another pick when the
     technique happens not to fire on this script *)
  let apply_effective pool script =
    let rec go tries script =
      if tries = 0 then script
      else
        let t = Rng.pick rng pool in
        let out = apply rng t script in
        if String.equal out script then go (tries - 1) script
        else begin
          ignore (use t);
          out
        end
    in
    go 3 script
  in
  (* name randomisation must happen before any encoding wraps statements,
     or the renamed outer script would disagree with payload-defined
     variables *)
  let wants_l1 = Rng.chance rng p_l1 in
  let l1_picks = if wants_l1 then Rng.sample rng (Rng.int_in rng 1 3) Technique.l1 else [] in
  let script =
    if List.mem Technique.Random_name l1_picks then begin
      let out = apply rng Technique.Random_name script in
      if String.equal out script then script
      else begin
        ignore (use Technique.Random_name);
        out
      end
    end
    else script
  in
  let script =
    if Rng.chance rng p_l3 then begin
      (* whitespace encoding is rare in the wild (0.1%, §IV-C1) *)
      let choices =
        List.filter (fun t -> t <> Technique.Enc_whitespace) Technique.l3
      in
      let t =
        if Rng.chance rng 0.002 then Technique.Enc_whitespace
        else Rng.pick rng choices
      in
      let encode s = L3.apply ?launcher ~indirect:(Rng.bool rng) rng (use t) s in
      let script =
        if Technique.level t <> 3 then apply rng (use t) script
        else if Rng.chance rng 0.5 then encode script
        else begin
          (* partial obfuscation: only one statement line is encoded, the
             rest of the script stays in clear — the common wild shape
             (the paper's case script, Fig 7a, is exactly this) *)
          let lines = String.split_on_char '\n' script in
          (* a line can be wrapped only when it is a complete statement on
             its own (not a brace fragment of a larger block) *)
          let encodable l =
            String.trim l <> "" && Psparse.Parser.is_valid_syntax l
            && not (String.contains l '{')
            && not (String.contains l '}')
          in
          let candidates =
            List.filteri (fun _ l -> encodable l) lines |> List.length
          in
          if candidates = 0 then encode script
          else begin
            let target = Rng.int rng candidates in
            let seen = ref (-1) in
            let lines =
              List.map
                (fun l ->
                  if encodable l then begin
                    incr seen;
                    if !seen = target then encode l else l
                  end
                  else l)
                lines
            in
            String.concat "\n" lines
          end
        end
      in
      (* some samples stack a second L3 layer (multi-layer obfuscation) *)
      if Rng.chance rng 0.25 then
        L3.apply ?launcher rng (use (Rng.pick rng choices)) script
      else script
    end
    else script
  in
  (* string-level L2 applies to the outermost layer, like Invoke-Obfuscation
     obfuscating the encoded payload string itself *)
  let script =
    if Rng.chance rng p_l2 then apply_effective Technique.l2 script else script
  in
  let script =
    if wants_l1 then begin
      let pool = List.filter (fun t -> t <> Technique.Random_name) Technique.l1 in
      let n = List.length (List.filter (fun t -> t <> Technique.Random_name) l1_picks) in
      let rec go n script =
        if n = 0 then script else go (n - 1) (apply_effective pool script)
      in
      go (max 1 n) script
    end
    else script
  in
  (script, List.rev !applied)

(** [multilayer rng depth script] stacks [depth] random L3 wrappers. *)
let multilayer rng depth script =
  let choices = List.filter (fun t -> t <> Technique.Enc_whitespace) Technique.l3 in
  let rec go depth acc =
    if depth = 0 then acc else go (depth - 1) (apply rng (Rng.pick rng choices) acc)
  in
  go depth script
