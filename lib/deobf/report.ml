module T = Pscommon.Telemetry

type gate = {
  verdict : Verify.verdict;
  rolled_back : int;
  sandbox_runs : int;
  verify_ms : float;
}

type t = {
  outcome : Batch.outcome;
  output : string;
  score_before : int;
  score_after : int;
  techniques_before : string list;
  techniques_after : string list;
  metrics : T.Metrics.snapshot;
  urls : string list;
  ips : string list;
  ps1_files : string list;
  powershell_commands : string list;
  verify : gate option;
}

(* the gate's figures from its [verify.verdict] event, the request's last *)
let gate_of_trace trace verdict =
  let attrs = ref [] in
  List.iter
    (fun (e : T.event) ->
      if String.equal e.T.name "verify.verdict" then attrs := e.T.attrs)
    (T.events trace);
  let int k = match List.assoc_opt k !attrs with Some (T.I n) -> n | _ -> 0 in
  { verdict; rolled_back = int "rolled_back"; sandbox_runs = int "sandbox_runs";
    verify_ms =
      (match List.assoc_opt "ms" !attrs with Some (T.F ms) -> ms | _ -> 0.0) }

let analyze ?options ?(verify = false) src =
  (* the request path with no deadline and no output cap, like batch but
     run to completion; with [verify] its trace holds the gate's figures *)
  let (outcome, output), gate =
    T.with_request_id ~record:verify (T.new_trace_id ()) @@ fun () ->
    let ((o, _) as run) =
      Batch.run_source ?options ~timeout_s:infinity ~max_output_bytes:max_int
        ~verify ~name:"report" src
    in
    ( run,
      match (o.Batch.verdict, T.current_trace ()) with
      | Some v, Some trace -> Some (gate_of_trace trace v)
      | _ -> None )
  in
  let before = Score.detect src in
  let after = Score.detect output in
  let info = Keyinfo.extract output in
  {
    outcome;
    output;
    score_before = Score.score_of_detection before;
    score_after = Score.score_of_detection after;
    techniques_before = Score.technique_names before;
    techniques_after = Score.technique_names after;
    metrics = T.Metrics.snapshot ();
    urls = info.Keyinfo.urls;
    ips = info.Keyinfo.ips;
    ps1_files = info.Keyinfo.ps1_files;
    powershell_commands = info.Keyinfo.powershell_commands;
    verify = gate;
  }

let json_string = T.json_string

let json_list items = "[" ^ String.concat ", " (List.map json_string items) ^ "]"

let to_json t =
  let o = t.outcome in
  let s = o.Batch.stats in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  \"changed\": %b," o.Batch.changed;
      Printf.sprintf "  \"score_before\": %d," t.score_before;
      Printf.sprintf "  \"score_after\": %d," t.score_after;
      Printf.sprintf "  \"techniques_before\": %s," (json_list t.techniques_before);
      Printf.sprintf "  \"techniques_after\": %s," (json_list t.techniques_after);
      Printf.sprintf "  \"pieces_recovered\": %d," s.Recover.pieces_recovered;
      Printf.sprintf "  \"variables_substituted\": %d," s.Recover.variables_substituted;
      Printf.sprintf "  \"layers_unwrapped\": %d," s.Recover.layers_unwrapped;
      Printf.sprintf "  \"pieces_attempted\": %d," s.Recover.pieces_attempted;
      Printf.sprintf "  \"pieces_blocked\": %d," s.Recover.pieces_blocked;
      Printf.sprintf "  \"cache_hits\": %d," s.Recover.cache_hits;
      Printf.sprintf "  \"iterations\": %d," o.Batch.iterations;
      Printf.sprintf "  \"wall_ms\": %.1f," o.Batch.wall_ms;
      Printf.sprintf "  \"phase_ms\": %s," (Batch.phase_ms_to_json o.Batch.phase_ms);
      Printf.sprintf "  \"metrics\": %s," (T.Metrics.snapshot_to_json t.metrics);
      Printf.sprintf "  \"regions_total\": %d," o.Batch.regions_total;
      Printf.sprintf "  \"regions_recovered\": %d," o.Batch.regions_recovered;
      Printf.sprintf "  \"urls\": %s," (json_list t.urls);
      Printf.sprintf "  \"ips\": %s," (json_list t.ips);
      Printf.sprintf "  \"ps1_files\": %s," (json_list t.ps1_files);
      Printf.sprintf "  \"powershell_commands\": %s," (json_list t.powershell_commands);
      Printf.sprintf "  \"verify\": %s,"
        (match t.verify with
        | None -> "null"
        | Some g ->
            Printf.sprintf
              "{\"verdict\": %s, \"detail\": %s, \"rolled_back\": %d, \
               \"sandbox_runs\": %d, \"verify_ms\": %.1f}"
              (json_string (Verify.verdict_name g.verdict))
              (match Verify.verdict_detail g.verdict with
              | None -> "null"
              | Some d -> json_string d)
              g.rolled_back g.sandbox_runs g.verify_ms);
      Printf.sprintf "  \"output\": %s" (json_string t.output);
      "}";
    ]
