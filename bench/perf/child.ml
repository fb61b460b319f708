(** The bodies of the child processes [perf run] starts.  Each reads its
    inputs from a list file, announces the end of its set-up with one
    "ready" line on stdout, does its work and writes a JSON result file. *)

module T = Pscommon.Telemetry

let now = Unix.gettimeofday
let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

(* What a run pays before its first result: runtime and module
   initialisation plus one trivial request through the batch core. *)
let setup () =
  ignore (Deobf.Batch.run_source ~name:"setup" "$x = 'a' + 'b'");
  print_string "ready\n";
  flush stdout

let mib_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* heap work, summed over the calls of [with_gc], from the runtime's own
   counters *)
type heap = { mutable minor_words : float; mutable major_collections : int }

let new_heap () = { minor_words = 0.0; major_collections = 0 }

let with_gc h f =
  let g0 = Gc.quick_stat () in
  Fun.protect f ~finally:(fun () ->
      let g1 = Gc.quick_stat () in
      h.minor_words <- h.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      h.major_collections <-
        h.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections))

let heap_json h =
  [ ("minor_mb", Json.Num (mib_of_words h.minor_words));
    ("major_collections", Json.Num (float_of_int h.major_collections)) ]

let verdict_name = function
  | None -> "off"
  | Some v -> Deobf.Verify.verdict_name v

(* The end-to-end batch run: what [Deobf.Batch.run_files] does at
   [--jobs 1] with the CLI's defaults (verify on, outputs written to
   [out_dir], one piece cache shared by every file), file by file, so that
   the host's speed is calibrated between files.  It leaves out the resume
   journal. *)
let batch ~inputs ~out_dir ~result =
  let files = read_lines inputs in
  setup ();
  let cal = Calib.start () in
  Calib.ping cal;
  let heap = new_heap () in
  let cache = Deobf.Recover.Cache.create () in
  let timed =
    with_gc heap (fun () ->
        List.map
          (fun f ->
            Calib.tick cal;
            let at = now () in
            (at, Deobf.Batch.process_file ~cache ~out_dir ~verify:true f))
          files)
  in
  Calib.ping cal;
  Calib.stop cal;
  let scale = Calib.scale cal in
  let outcomes = List.map snd timed in
  Json.to_file result
    (Json.Obj
       ([ ("peak_rss_kb", Json.Num (Proc.vm_hwm_kb "self"));
          ( "wall_ms",
            Json.floats
              (List.map
                 (fun (at, (o : Deobf.Batch.outcome)) ->
                   o.wall_ms *. scale (at +. (o.wall_ms /. 2000.0)))
                 timed) );
          ( "verdict",
            Json.Arr
              (List.map
                 (fun o -> Json.Str (verdict_name o.Deobf.Batch.verdict))
                 outcomes) );
          ( "degraded",
            Json.ints
              (List.map
                 (fun o ->
                   if o.Deobf.Batch.failures <> [] || o.Deobf.Batch.retries > 0
                   then 1
                   else 0)
                 outcomes) ) ]
       @ heap_json heap))

(* The serve check's reference: each distinct script through
   [Batch.run_source ~verify:true], cold, in a fresh process. *)
let reference ~inputs ~result =
  let files = read_lines inputs in
  setup ();
  let digests =
    List.map
      (fun f ->
        let _, out =
          Deobf.Batch.run_source ~verify:true ~name:"reference" (read_file f)
        in
        Json.Str (Digest.to_hex (Digest.string out)))
      files
  in
  Json.to_file result (Json.Obj [ ("digest", Json.Arr digests) ])

(* Serialized traces are kept in memory until the end; past this many bytes
   the rest of the run is not kept. *)
let trace_keep_bytes = 64 * 1024 * 1024

(* each distinct input read once: the serve stream repeats scripts *)
let read_inputs inputs =
  let memo = Hashtbl.create 1024 in
  List.map
    (fun f ->
      match Hashtbl.find_opt memo f with
      | Some s -> s
      | None ->
          let s = read_file f in
          Hashtbl.add memo f s;
          s)
    (read_lines inputs)

(* The traced run's twin: the same replay with no trace installed, so the
   difference in their wall time is what tracing costs. *)
let replay_plain ~inputs ~result ~cache_cap =
  let texts = read_inputs inputs in
  setup ();
  let cache = Deobf.Recover.Cache.create ?cap:cache_cap () in
  let counts = Replay.new_counts () in
  let cal = Calib.start () in
  Calib.ping cal;
  let timed =
    List.map
      (fun src ->
        Calib.tick cal;
        counts.Replay.pass_inputs <- [];
        let t0 = now () in
        (try ignore (Replay.process counts ~cache src) with _ -> ());
        (t0, (now () -. t0) *. 1000.0))
      texts
  in
  Calib.ping cal;
  Calib.stop cal;
  let scale = Calib.scale cal in
  let wall_ms =
    List.fold_left (fun a (t0, ms) -> a +. (ms *. scale (t0 +. (ms /. 2000.0)))) 0.0 timed
  in
  Json.to_file result (Json.Obj [ ("wall_ms", Json.Num wall_ms) ])

(* The traced run: the stage replay over the same inputs, one trace per
   sample, one piece cache shared across samples as in batch. *)
let replay ~inputs ~result ~seed ~cache_cap ~trace_out =
  let texts = read_inputs inputs in
  setup ();
  let cache = Deobf.Recover.Cache.create ?cap:cache_cap () in
  let trace = T.create ~capacity:(1 lsl 18) () in
  let totals = Replay.new_totals () in
  let counts = Replay.new_counts () in
  let kept = Buffer.create 4096 in
  let rng = Pscommon.Rng.of_int (seed + 50) in
  let dropped = ref 0 and failed = ref 0 in
  let reparse_ms = ref 0.0 and wall_ms = ref 0.0 in
  let regions = ref 0 and recovered = ref 0 in
  let sandbox_runs = ref 0 and rollbacks = ref 0 in
  let idem_inputs = ref [] in
  let heap = new_heap () in
  (* per sample: when it started, its span totals, wall and re-parse time,
     scaled to the reference speed once the run is over *)
  let timed = ref [] in
  let cal = Calib.start () in
  Calib.ping cal;
  let digests =
    List.map
      (fun src ->
        Calib.tick cal;
        counts.Replay.pass_inputs <- [];
        T.reset trace;
        let t0 = now () in
        let sample =
          try
            Some
              (with_gc heap (fun () ->
                   T.with_trace trace (fun () ->
                       T.span "sample" (fun () -> Replay.process counts ~cache src))))
          with _ -> None
        in
        let wall = (now () -. t0) *. 1000.0 in
        let own = Replay.new_totals () in
        Replay.account own (T.events trace);
        dropped := !dropped + T.dropped trace;
        if Buffer.length kept < trace_keep_bytes then
          Buffer.add_string kept (T.to_jsonl trace);
        (* what re-parsing every pass input from scratch costs, outside the
           sample's spans *)
        let t1 = now () in
        List.iter
          (fun s -> ignore (Psparse.Parser.parse s))
          counts.Replay.pass_inputs;
        timed := (t0, own, wall, (now () -. t1) *. 1000.0) :: !timed;
        match sample with
        | None ->
            incr failed;
            Json.Str ""
        | Some s ->
            let st = s.Replay.main in
            regions := !regions + st.Deobf.Recover.dynamic_attempted;
            recovered := !recovered + st.Deobf.Recover.dynamic_recovered;
            (match s.Replay.verify with
            | Some o ->
                sandbox_runs := !sandbox_runs + o.Deobf.Verify.sandbox_runs;
                (match o.Deobf.Verify.verdict with
                | Deobf.Verify.Rolled_back _ -> incr rollbacks
                | _ -> ())
            | None -> ());
            if Pscommon.Rng.int rng 50 = 0 then
              idem_inputs := s.Replay.output :: !idem_inputs;
            Json.Str (Digest.to_hex (Digest.string s.Replay.output)))
      texts
  in
  Calib.ping cal;
  Calib.stop cal;
  let scale = Calib.scale cal in
  List.iter
    (fun (t0, own, wall, reparse) ->
      let k = scale (t0 +. (wall /. 2000.0)) in
      Replay.merge ~into:totals ~scale:k own;
      wall_ms := !wall_ms +. (wall *. k);
      reparse_ms := !reparse_ms +. (reparse *. k))
    !timed;
  (* idempotence on the seeded subsample: a second pass must change nothing *)
  let idem_failures =
    List.length
      (List.filter
         (fun y ->
           let _, z = Deobf.Batch.run_source ~cache ~verify:true ~name:"idem" y in
           not (String.equal y z))
         !idem_inputs)
  in
  Out_channel.with_open_bin trace_out (fun oc -> Buffer.output_buffer oc kept);
  let cs = Deobf.Recover.Cache.stats cache in
  let f x = Json.Num (float_of_int x) in
  Json.to_file result
    (Json.Obj
       ([ ("digest", Json.Arr digests);
          ( "self_ms",
            Json.Obj
              (Hashtbl.fold (fun k v acc -> (k, Json.Num v) :: acc)
                 totals.Replay.self_ms []) );
          ("wall_ms", Json.Num !wall_ms);
          ("sample_ms", Json.Num totals.Replay.sample_ms);
          ("evals", f totals.Replay.evals);
          ("passes", f counts.Replay.passes);
          ("layers", f counts.Replay.layers);
          ("reparse_ms", Json.Num !reparse_ms);
          ("dynamic_regions", f !regions);
          ("dynamic_recovered", f !recovered);
          ("sandbox_runs", f !sandbox_runs);
          ("rollbacks", f !rollbacks);
          ("cache_hits", f cs.Deobf.Recover.Cache.hits);
          ("cache_lookups", f cs.Deobf.Recover.Cache.lookups);
          ("dropped_events", f !dropped);
          ("replay_failures", f !failed);
          ("idempotence_checked", f (List.length !idem_inputs));
          ("idempotence_failures", f idem_failures) ]
       @ heap_json heap))

let main args =
  let value name =
    let rec go = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let need name =
    match value name with
    | Some v -> v
    | None -> failwith ("child: missing " ^ name)
  in
  match args with
  | "probe" :: _ -> setup ()
  | "calib" :: _ -> Calib.serve ()
  | "batch" :: _ ->
      batch ~inputs:(need "--inputs") ~out_dir:(need "--out-dir")
        ~result:(need "--result")
  | "reference" :: _ -> reference ~inputs:(need "--inputs") ~result:(need "--result")
  | "replay" :: _ when List.mem "--plain" args ->
      replay_plain ~inputs:(need "--inputs") ~result:(need "--result")
        ~cache_cap:(Option.map int_of_string (value "--cache-cap"))
  | "replay" :: _ ->
      replay ~inputs:(need "--inputs") ~result:(need "--result")
        ~seed:(int_of_string (need "--seed"))
        ~cache_cap:(Option.map int_of_string (value "--cache-cap"))
        ~trace_out:(need "--trace-out")
  | _ -> failwith "child: unknown mode"
