(** Ablations of the design choices DESIGN.md calls out.

    Four engine variants against the full tool, measured on a wild corpus
    by average score reduction and behavioural consistency:
    {ul
    {- no variable tracing — pieces with variables stay obfuscated;}
    {- no token phase — L1 mitigation collapses;}
    {- no blocklist — recovery executes side-effecting pieces (refused by
       the Recovery interpreter, so pieces are lost {e and} time is wasted);}
    {- no multi-layer unwrapping — IEX payloads stay encoded.}} *)

type variant = { name : string; options : Deobf.Engine.options }

let variants =
  let base = Deobf.Engine.default_options in
  [
    { name = "full"; options = base };
    { name = "no-tracing";
      options = { base with recovery = { base.recovery with use_tracing = false } } };
    { name = "no-token-phase"; options = { base with token_phase = false } };
    { name = "no-blocklist";
      options = { base with recovery = { base.recovery with use_blocklist = false } } };
    { name = "no-multilayer";
      options = { base with recovery = { base.recovery with use_multilayer = false } } };
  ]

type row = {
  variant : string;
  avg_score_reduced : float;
  behavior_consistent : int;
  samples_with_network : int;
  key_info_recovered : int;  (** vs the clean scripts' ground truth *)
  key_info_total : int;
  mean_time_s : float;
}

let run ?(seed = 31337) ?(count = 40) () =
  let samples = Corpus.Generator.generate ~seed ~count in
  List.map
    (fun v ->
      let reductions = ref [] in
      let consistent = ref 0 and with_network = ref 0 in
      let key_got = ref 0 and key_total = ref 0 in
      (* the variant as it would ship: verify gate on, its own cache *)
      let cache = Deobf.Recover.Cache.create () in
      let t0 = Unix.gettimeofday () in
      List.iter
        (fun s ->
          let input = s.Corpus.Generator.obfuscated in
          let _, output =
            Deobf.Batch.run_source ~options:v.options ~cache ~verify:true
              ~name:"sample" input
          in
          let sb = Deobf.Score.score input and sa = Deobf.Score.score output in
          if sb > 0 then
            reductions := (float_of_int (sb - sa) /. float_of_int sb) :: !reductions;
          let ground = Keyinfo.extract s.Corpus.Generator.clean in
          key_total := !key_total + Keyinfo.count ground;
          key_got :=
            !key_got
            + Keyinfo.count (Keyinfo.intersection ~ground_truth:ground (Keyinfo.extract output));
          let orig_run = Sandbox.run input in
          if Sandbox.has_network_behavior orig_run then begin
            incr with_network;
            if Sandbox.same_network_behavior orig_run (Sandbox.run output) then
              incr consistent
          end)
        samples;
      let elapsed = Unix.gettimeofday () -. t0 in
      let avg =
        match !reductions with
        | [] -> 0.0
        | rs -> 100.0 *. List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)
      in
      {
        variant = v.name;
        avg_score_reduced = avg;
        behavior_consistent = !consistent;
        samples_with_network = !with_network;
        key_info_recovered = !key_got;
        key_info_total = !key_total;
        mean_time_s = elapsed /. float_of_int count;
      })
    variants

let print rows =
  Printf.printf "Ablation: engine variants on a wild corpus\n";
  Printf.printf "  %-16s %12s %20s %12s %12s\n" "Variant" "AvgReduced"
    "BehaviorConsistent" "KeyInfo" "mean time";
  List.iter
    (fun r ->
      Printf.printf "  %-16s %11.1f%% %12d/%-7d %6d/%-5d %10.3fs\n" r.variant
        r.avg_score_reduced r.behavior_consistent r.samples_with_network
        r.key_info_recovered r.key_info_total r.mean_time_s)
    rows
