(** perf — the repository benchmark.

    {v
    perf run [--workload W]... [--seed S] [--runs K] [--seconds T]
             [--trace DIR] [--out FILE] [--cli PATH]
    perf compare A.json B.json [--benchmark BENCHMARK.json]
    v}

    [run] generates each workload's inputs from the seed (untimed), runs
    every batch (workload, run) in a fresh child process and every serve
    run as passes over one fresh daemon, scales every time to a reference
    host speed ([Calib]), checks the outputs, prints every metric by name
    with its unit, writes a results JSON and ends with a one-line JSON
    summary.  See README.md. *)

let now = Unix.gettimeofday
let exe = Sys.executable_name

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s)) fmt

(* where an invocation's wall time goes, on stderr *)
let timed label f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  log "%s: %.1f s" label (Unix.gettimeofday () -. t0);
  r

(* ---------- options ---------- *)

type opts = {
  workloads : Spec.workload list;
  seed : int;
  runs : int;
  seconds : float;
  trace : string option;  (** the traced run writes its spans here *)
  out : string;
  cli : string;
}

let default_cli () =
  let built = "_build/default/bin/invoke_deobfuscation.exe" in
  if Sys.file_exists built then built else "invoke_deobfuscation"

(* inputs, outputs and results go under the build directory, which
   version control already ignores *)
let perf_dir = Filename.concat "_build" "perf"

let parse_run_args args =
  let o =
    ref
      { workloads = []; seed = 1; runs = 3; seconds = 20.0; trace = None;
        out = Filename.concat perf_dir "results.json"; cli = default_cli () }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> (
        match Spec.workload w with
        | Some w -> o := { !o with workloads = !o.workloads @ [ w ] }; go rest
        | None -> failwith ("unknown workload " ^ w))
    | "--seed" :: v :: rest -> o := { !o with seed = int_of_string v }; go rest
    | "--runs" :: v :: rest -> o := { !o with runs = max 1 (int_of_string v) }; go rest
    | "--seconds" :: v :: rest ->
        o := { !o with seconds = Float.max 0.01 (float_of_string v) };
        go rest
    | "--trace" :: d :: rest -> o := { !o with trace = Some d }; go rest
    | "--out" :: f :: rest -> o := { !o with out = f }; go rest
    | "--cli" :: f :: rest -> o := { !o with cli = f }; go rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  go args;
  if !o.workloads = [] then { !o with workloads = Spec.workloads } else !o

(* ---------- inputs ---------- *)

type prepared = {
  w : Spec.workload;
  dir : string;
  inputs : string;  (** list file naming [files], one per line *)
  files : string array;
  out_dir : string;  (** where batch runs write their outputs *)
  clean : string array;  (** generator ground truth, per file *)
  obfuscated : string array;
}

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let write_inputs path files =
  write_file path (String.concat "\n" (Array.to_list files) ^ "\n")

(* The serve workload's 1000 distinct scripts.  The pool is the same on
   every seed, and the seed orders the warm-up and the closed loops: under
   Zipf the first
   ten ranks take 43% of all requests, so with a seeded pool a handful of
   scripts set p50 and throughput, which then spread by 24% and 18% across
   six seeds.  A run shorter than about 13 s serves only the head of the
   pool, so a smoke run stays short. *)
let serve_pool_size ~seconds (w : Spec.workload) =
  min 1000 (max 50 (int_of_float (w.Spec.rate *. seconds)))

let prepare ~work ~seed ~seconds (w : Spec.workload) =
  let dir = Filename.concat work w.Spec.name in
  let in_dir = Filename.concat dir "in" in
  Proc.mkdir_p in_dir;
  let samples =
    match w.Spec.kind with
    | Spec.Batch gen ->
        gen ~seed ~count:(max 1 (int_of_float (Float.round (w.Spec.rate *. seconds))))
    | Spec.Serve ->
        Corpus.Generator.generate ~seed:Spec.fixed_seed
          ~count:(serve_pool_size ~seconds w)
  in
  let samples = Array.of_list samples in
  let files =
    Array.mapi
      (fun i (s : Corpus.Generator.sample) ->
        let f = Filename.concat in_dir (Printf.sprintf "%06d.ps1" i) in
        write_file f s.Corpus.Generator.obfuscated;
        f)
      samples
  in
  let inputs = Filename.concat dir "inputs.txt" in
  write_inputs inputs files;
  (* Every run writes into one directory whose files exist already, so it
     overwrites them.  Creating a file on the ext4 disk of the 2-vCPU VM
     the benchmark was defined on took 0.16-0.41 ms, with the host's disk
     traffic, against 0.03-0.08 ms to overwrite one; [wild] spends about
     1.2 ms per file in all. *)
  let out_dir = Filename.concat dir "out" in
  (match w.Spec.kind with
  | Spec.Batch _ ->
      Proc.mkdir_p out_dir;
      Array.iter
        (fun f -> write_file (Filename.concat out_dir (Filename.basename f)) "")
        files
  | Spec.Serve -> ());
  { w; dir; inputs; files; out_dir;
    clean = Array.map (fun (s : Corpus.Generator.sample) -> s.clean) samples;
    obfuscated = Array.map (fun (s : Corpus.Generator.sample) -> s.obfuscated) samples }

(* [k] requests over [n] scripts under Zipf (s = 1): script [r] is asked
   for as often as rank [r + 1] expects, rounded so the counts sum to [k],
   and the seed orders the requests.  Drawn at random instead, the few
   requests for slow scripts came and went with the seed, and p99 spread
   by 80% across ten seeds.

   The open loop takes its order from [Spec.fixed_seed].  A request's time
   depends on those before it in its pass (the queue, the cache, the
   garbage collector), and every pass repeats them in the same order.
   With the order drawn by the seed, a request for one script took 6.4 ms
   in one order and 8.1 ms in another (each at its fastest of ten passes),
   and p99 ranged over 2.86-3.78 ms across four seeds against 2.86-3.02 ms
   across three runs of one seed. *)
let zipf_requests ~seed ~n k =
  let h = ref 0.0 in
  for r = 1 to n do
    h := !h +. (1.0 /. float_of_int r)
  done;
  let upto = ref 0.0 and sent = ref 0 and reqs = ref [] in
  for r = 0 to n - 1 do
    upto := !upto +. (1.0 /. float_of_int (r + 1));
    let total = int_of_float (Float.round (float_of_int k *. !upto /. !h)) in
    reqs := List.init (total - !sent) (fun _ -> r) @ !reqs;
    sent := total
  done;
  Array.of_list (Pscommon.Rng.shuffle (Pscommon.Rng.of_int (seed + 1)) !reqs)

(* ---------- one run ---------- *)

type run = {
  e2e : (string * float) list;
  serve_layers : (string * float) list;  (** serve.* measured at the client *)
  gc : (string * float) list;  (** per sample, from the measured child *)
  samples : int;
      (** what latencies and quality are taken over: the input files, or
          serve's open-loop requests; fixed by the seed and the length *)
  attempted : int;
  failed : int;
  diverged : int;
  digest : string;  (** all outputs, in input order *)
  sample_digests : string array;  (** per sample, or per request for serve *)
  outputs : string array;  (** per input file (serve: per distinct script) *)
  requested : int array;  (** serve: script index of each request, in order *)
}

let digest_all digests = Digest.to_hex (Digest.string (String.concat "," digests))
let read_file = Child.read_file

let latency_metrics ms =
  let a = Stat.sorted ms in
  [ ("latency_p50_ms", Stat.nearest_rank a 0.5);
    ("latency_p99_ms", Stat.nearest_rank a 0.99) ]

let score_reduction ~inputs ~outputs =
  let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs in
  1.0
  -. Stat.ratio
       (float_of_int (sum Deobf.Score.score outputs))
       (float_of_int (sum Deobf.Score.score inputs))

let child_deadline = ref infinity

(* Set-up is timed over this many starts per run, each scaled to the
   reference speed; the run reports their median. *)
let setup_starts = 9

(* [start ()] starts a process and returns when it is ready, with its
   set-up time and a handle.  Each start is scaled by the host's speed,
   calibrated just before and after it, and [release]d unless it is the
   last, whose handle comes back with the scaled times. *)
let timed_starts cal ~start ~release =
  let rec go k acc =
    Calib.ping cal;
    Calib.ping cal;
    let at = now () in
    let s, x = start () in
    Calib.ping cal;
    Calib.ping cal;
    let acc = (at, s) :: acc in
    if k < setup_starts then begin
      release x;
      go (k + 1) acc
    end
    else
      let scale = Calib.scale cal in
      (List.map (fun (at, s) -> s *. scale at) acc, x)
  in
  go 1 []

let probe () =
  let p = Proc.spawn exe [ "child"; "probe" ] in
  let s = Proc.wait_ready p ~deadline:!child_deadline in
  (match Proc.finish p ~deadline:!child_deadline with
  | Ok () -> ()
  | Error e -> fail "set-up probe: %s" e);
  (s, ())

(* A run is one fresh child over every input. *)
let run_batch (p : prepared) ~cal ~index =
  let setups, () = timed_starts cal ~start:probe ~release:ignore in
  let result = Filename.concat p.dir (Printf.sprintf "result-%d.json" index) in
  let c =
    Proc.spawn exe
      [ "child"; "batch"; "--inputs"; p.inputs; "--out-dir"; p.out_dir; "--result"; result ]
  in
  ignore (Proc.wait_ready c ~deadline:!child_deadline);
  (match Proc.finish c ~deadline:!child_deadline with
  | Ok () -> ()
  | Error e -> fail "%s run %d: %s" p.w.Spec.name (index + 1) e);
  let r = Json.of_file result in
  let outputs =
    Array.map
      (fun f -> read_file (Filename.concat p.out_dir (Filename.basename f)))
      p.files
  in
  let n = Array.length p.files in
  let verdicts = List.map Json.to_str (Json.to_list (Json.member "verdict" r)) in
  let failed_each =
    List.map2
      (fun v d -> d = 1 || v = "diverged" || v = "unverifiable")
      verdicts
      (List.map Json.to_int (Json.to_list (Json.member "degraded" r)))
  in
  let wall_ms = List.map Json.to_float (Json.to_list (Json.member "wall_ms" r)) in
  let count p l = List.length (List.filter p l) in
  let sample_digests = Array.map (fun o -> Digest.to_hex (Digest.string o)) outputs in
  let num k r = Json.to_float (Json.member k r) in
  { e2e =
      [ ("samples_per_s", float_of_int n /. (List.fold_left ( +. ) 0.0 wall_ms /. 1000.0)) ]
      @ latency_metrics
          (List.map2 (fun ms f -> if f then infinity else ms) wall_ms failed_each)
      @ [ ("setup_s", Stat.median setups);
          ("peak_rss_mb", num "peak_rss_kb" r /. 1024.0);
          ( "verified_frac",
            float_of_int (count (( = ) "equivalent") verdicts) /. float_of_int n );
          ("score_reduction", score_reduction ~inputs:p.obfuscated ~outputs) ];
    serve_layers = [];
    gc =
      [ ("gc.minor_mb", num "minor_mb" r /. float_of_int n);
        ("gc.major_collections", num "major_collections" r /. float_of_int n) ];
    samples = n;
    attempted = n;
    failed = count Fun.id failed_each;
    diverged = count (( = ) "diverged") verdicts;
    digest = digest_all (Array.to_list sample_digests);
    sample_digests;
    outputs;
    requested = [||] }

(* The serve check's reference: every pool script through
   Batch.run_source ~verify:true, cold, in a fresh process. *)
let serve_reference (p : prepared) =
  let result = Filename.concat p.dir "reference.json" in
  let c =
    Proc.spawn exe [ "child"; "reference"; "--inputs"; p.inputs; "--result"; result ]
  in
  ignore (Proc.wait_ready c ~deadline:!child_deadline);
  (match Proc.finish c ~deadline:!child_deadline with
  | Ok () -> ()
  | Error e -> fail "serve reference: %s" e);
  Array.of_list
    (List.map Json.to_str (Json.to_list (Json.member "digest" (Json.of_file result))))

let run_serve (p : prepared) ~cal ~seed ~seconds ~cli ~reference =
  let lines =
    Array.map
      (fun s -> Printf.sprintf "\"script\":%s}\n" (Pscommon.Telemetry.json_string s))
      p.obfuscated
  in
  let sock = Filename.concat p.dir "daemon.sock" in
  let n = Array.length lines in
  let warm =
    Array.of_list
      (Pscommon.Rng.shuffle (Pscommon.Rng.of_int seed) (List.init n Fun.id))
  in
  let open_ =
    zipf_requests ~seed:Spec.fixed_seed ~n (Serve_load.open_requests ~seconds)
  in
  let closed = zipf_requests ~seed:(seed + 1) ~n (Serve_load.closed_requests ~seconds) in
  (* set-up starts; the last daemon started stays up and is measured *)
  let setups, d =
    timed_starts cal ~start:(fun () -> Serve_load.start ~cli ~sock) ~release:Serve_load.stop
  in
  let r = Serve_load.run d ~cal ~lines ~warm ~open_ ~closed in
  Serve_load.stop d;
  let scale = Calib.scale cal in
  let ok (q : Serve_load.request) =
    Float.is_finite q.Serve_load.answered
    && Deobf.Jsonl.string_field q.Serve_load.line "status" = Some "ok"
  in
  (* outputs must agree across every response for a script *)
  let outputs = Array.make (Array.length p.files) "" in
  let seen = Hashtbl.create 1024 in
  let verdict (q : Serve_load.request) =
    if not (ok q) then "failed"
    else begin
      let out =
        Option.value ~default:"" (Deobf.Jsonl.string_field q.Serve_load.line "output")
      in
      let d = Digest.to_hex (Digest.string out) in
      (match Hashtbl.find_opt seen q.Serve_load.script with
      | None ->
          Hashtbl.add seen q.Serve_load.script d;
          outputs.(q.Serve_load.script) <- out
      | Some d' ->
          if d <> d' then
            fail "serve: script %d answered with two different outputs" q.Serve_load.script);
      Option.value ~default:"" (Deobf.Jsonl.string_field q.Serve_load.line "verdict")
    end
  in
  let passes = r.Serve_load.passes in
  let verdicts =
    List.map verdict r.Serve_load.warmup
    @ List.concat_map
        (fun (ps : Serve_load.pass) -> List.map verdict (ps.opened @ ps.closed))
        passes
  in
  Hashtbl.iter
    (fun s d ->
      if d <> (Lazy.force reference).(s) then
        fail "serve: script %d differs from Batch.run_source ~verify:true" s)
    seen;
  (* times at the reference speed, scaled where each request was due; a
     failed request takes forever *)
  let server_ms (q : Serve_load.request) =
    if ok q then
      Option.value ~default:nan (Deobf.Jsonl.float_field q.Serve_load.line "wall_ms")
      *. scale q.Serve_load.due
    else infinity
  in
  let latency (q : Serve_load.request) =
    if ok q then (q.Serve_load.answered -. q.Serve_load.due) *. 1000.0 *. scale q.Serve_load.due
    else infinity
  in
  let outside q = if ok q then latency q -. server_ms q else infinity in
  (* per open-loop request, the median of its passes *)
  let per_request f =
    let cols =
      List.map (fun (ps : Serve_load.pass) -> Array.of_list (List.map f ps.opened)) passes
    in
    List.init
      (Array.length (List.hd cols))
      (fun i -> Stat.median (List.map (fun c -> c.(i)) cols))
  in
  let server = Stat.sorted (per_request server_ms) in
  let outside = Stat.sorted (per_request outside) in
  let late =
    Stat.sorted
      (List.concat_map
         (fun (ps : Serve_load.pass) ->
           List.map (fun (q : Serve_load.request) -> (q.sent -. q.due) *. 1000.0) ps.opened)
         passes)
  in
  let closed_ok =
    List.fold_left
      (fun a (ps : Serve_load.pass) -> a + List.length (List.filter ok ps.closed))
      0 passes
  in
  let closed_s =
    List.fold_left
      (fun a (t0, t1) -> a +. ((t1 -. t0) *. scale ((t0 +. t1) /. 2.0)))
      0.0
      (List.concat_map (fun (ps : Serve_load.pass) -> ps.closed_windows) passes)
  in
  let opened = (List.hd passes).Serve_load.opened in
  (* what the traced replay serves: the warm-up and the first open loop *)
  let requested =
    Array.of_list
      (List.map (fun (q : Serve_load.request) -> q.script) (r.Serve_load.warmup @ opened))
  in
  let n = List.length opened in
  let count p l = List.length (List.filter p l) in
  let sample_digests =
    Array.map (fun s -> Option.value ~default:"" (Hashtbl.find_opt seen s)) requested
  in
  { e2e =
      [ ("samples_per_s", float_of_int closed_ok /. closed_s) ]
      @ latency_metrics (per_request latency)
      @ [ ("setup_s", Stat.median setups);
          ("peak_rss_mb", r.Serve_load.peak_rss_kb /. 1024.0);
          ( "verified_frac",
            float_of_int
              (count
                 (fun q -> Deobf.Jsonl.string_field q.Serve_load.line "verdict" = Some "equivalent")
                 opened)
            /. float_of_int n );
          ( "score_reduction",
            let scripts =
              Array.of_list (List.map (fun (q : Serve_load.request) -> q.script) opened)
            in
            score_reduction
              ~inputs:(Array.map (fun s -> p.obfuscated.(s)) scripts)
              ~outputs:(Array.map (fun s -> outputs.(s)) scripts) ) ];
    serve_layers =
      [ ("serve.server_ms_p50", Stat.nearest_rank server 0.5);
        ("serve.server_ms_p99", Stat.nearest_rank server 0.99);
        ("serve.outside_ms_p50", Stat.nearest_rank outside 0.5);
        ("serve.outside_ms_p99", Stat.nearest_rank outside 0.99);
        ("serve.gen_late_ms_p99", Stat.nearest_rank late 0.99);
        ( "serve.cache_hit_rate",
          Stat.ratio (float_of_int r.Serve_load.cache_hits)
            (float_of_int r.Serve_load.cache_lookups) ) ];
    gc = [];
    samples = n;
    attempted = List.length verdicts;
    failed =
      count (fun v -> v = "failed" || v = "diverged" || v = "unverifiable") verdicts;
    diverged = count (( = ) "diverged") verdicts;
    (* the warm-up answers every script of the pool, so this covers the
       same scripts on every run *)
    digest =
      digest_all
        (List.init (Array.length outputs) (fun s ->
             Option.value ~default:"" (Hashtbl.find_opt seen s)));
    sample_digests;
    outputs;
    requested }

(* ---------- the traced run ---------- *)

let run_traced (p : prepared) ~seed ~first ~trace_dir =
  let list = Filename.concat p.dir "replay.txt" in
  (* the serve replay runs the request stream with the daemon's cache *)
  let cache_cap =
    match p.w.Spec.kind with
    | Spec.Batch _ ->
        write_inputs list p.files;
        []
    | Spec.Serve ->
        write_inputs list (Array.map (fun s -> p.files.(s)) first.requested);
        [ "--cache-cap"; string_of_int Serve_load.cache_cap ]
  in
  let replay name extra =
    let result = Filename.concat p.dir (name ^ ".json") in
    let c =
      Proc.spawn exe
        ([ "child"; "replay"; "--inputs"; list; "--result"; result; "--seed";
           string_of_int seed ]
        @ cache_cap @ extra)
    in
    ignore (Proc.wait_ready c ~deadline:!child_deadline);
    (match Proc.finish c ~deadline:!child_deadline with
    | Ok () -> ()
    | Error e -> fail "%s %s: %s" p.w.Spec.name name e);
    Json.of_file result
  in
  let plain_ms =
    Json.to_float (Json.member "wall_ms" (replay "plain replay" [ "--plain" ]))
  in
  Proc.mkdir_p trace_dir;
  let result =
    replay "traced replay"
      [ "--trace-out"; Filename.concat trace_dir (p.w.Spec.name ^ ".trace.jsonl") ]
  in
  let num k = Json.to_float (Json.member k result) in
  let digests =
    Array.of_list (List.map Json.to_str (Json.to_list (Json.member "digest" result)))
  in
  let n = float_of_int (Array.length digests) in
  let mismatch = ref (int_of_float (num "replay_failures")) in
  Array.iteri (fun i d -> if d <> first.sample_digests.(i) then incr mismatch) digests;
  let self = Json.to_obj (Json.member "self_ms" result) in
  let self k = Option.fold ~none:0.0 ~some:Json.to_float (List.assoc_opt k self) in
  let per_sample v = v /. n in
  let layers =
    [ ("pseval.eval_ms", per_sample (self "pseval.eval_ms"));
      ("pseval.evals", per_sample (num "evals"));
      ("recover.lookup_ms", per_sample (self "recover.lookup_ms"));
      ("recover.cache_hit_rate", Stat.ratio (num "cache_hits") (num "cache_lookups"));
      ("recover.pass_ms", per_sample (self "recover.pass_ms"));
      ("recover.passes", per_sample (num "passes"));
      ("recover.layers", per_sample (num "layers"));
      ("psparse.ms", per_sample (self "psparse.ms"));
      ("psparse.reparse_ms", per_sample (num "reparse_ms"));
      ("token_phase.ms", per_sample (self "token_phase.ms"));
      ("simplify.ms", per_sample (self "simplify.ms"));
      ("dynamic.ms", per_sample (self "dynamic.ms"));
      ("dynamic.regions", per_sample (num "dynamic_regions"));
      ( "dynamic.recovered_ratio",
        Stat.ratio (num "dynamic_recovered") (num "dynamic_regions") );
      ("rename.ms", per_sample (self "rename.ms"));
      ("reformat.ms", per_sample (self "reformat.ms"));
      ("verify.ms", per_sample (self "verify.ms"));
      ("verify.sandbox_runs", per_sample (num "sandbox_runs"));
      ("verify.rollback_ratio", per_sample (num "rollbacks"));
      ("trace.overhead_frac", (num "wall_ms" /. plain_ms) -. 1.0);
      ("trace.residual_frac", Stat.ratio (self "residual") (num "sample_ms"));
      ("trace.replay_mismatch", float_of_int !mismatch) ]
  in
  let gc =
    match p.w.Spec.kind with
    | Spec.Batch _ -> []
    | Spec.Serve ->
        (* the daemon's heap is not observable from outside; the replay of
           the same request sequence stands in *)
        [ ("gc.minor_mb", per_sample (num "minor_mb"));
          ("gc.major_collections", per_sample (num "major_collections")) ]
  in
  ( layers @ gc,
    [ ("dropped_events", num "dropped_events");
      ("idempotence_checked", num "idempotence_checked");
      ("idempotence_failures", num "idempotence_failures") ] )

(* ---------- checks ---------- *)

(* Key-info recall against the generator's pre-obfuscation source: an
   oracle independent of the program's own verifier.

   Keyinfo's patterns backtrack, so extraction is quadratic in the longest
   run of characters they can consume, and some outputs keep encoded blobs
   tens of kilobytes long (one seed's check ran for ten minutes).  No match
   crosses a character outside [indicator_char], and a newline is a
   non-word character like all of those, so extracting from the runs that
   contain a ground-truth indicator, one per line, finds every match that
   can equal one: the recall is exactly that of the whole output.  Checked
   against whole-output extraction on 5.7k outputs of all four
   generators. *)
let indicator_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' | '\\' | '/' | ':'
  | '$' | '%' | '?' | '=' | '&' | '+' | '~' ->
      true
  | _ -> false

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec matches i j = j = m || (hay.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec at i = i + m <= n && (matches i 0 || at (i + 1)) in
  at 0

let runs_holding needles text =
  let n = String.length text in
  let b = Buffer.create 256 in
  let rec scan i =
    if i < n then
      if not (indicator_char text.[i]) then scan (i + 1)
      else begin
        let j = ref i in
        while !j < n && indicator_char text.[!j] do
          incr j
        done;
        let run = String.sub text i (!j - i) in
        if List.exists (contains (String.lowercase_ascii run)) needles then begin
          Buffer.add_string b run;
          Buffer.add_char b '\n'
        end;
        scan !j
      end
  in
  scan 0;
  Buffer.contents b

let keyinfo_recall ~clean ~outputs ~indices =
  let total = ref 0 and found = ref 0 in
  Array.iter
    (fun i ->
      let truth = Keyinfo.extract clean.(i) in
      let needles =
        List.map String.lowercase_ascii
          Keyinfo.(truth.ps1_files @ truth.powershell_commands @ truth.urls @ truth.ips)
      in
      if needles <> [] then begin
        total := !total + Keyinfo.count truth;
        found :=
          !found
          + Keyinfo.count
              (Keyinfo.intersection ~ground_truth:truth
                 (Keyinfo.extract (runs_holding needles outputs.(i))))
      end)
    indices;
  (!found, !total)

(* Recall is also an end-to-end metric.  The check only guards against a
   collapse: on [layered] the program already misses about 0.2% of the
   indicators, which stay inside inner layers it does not unwrap. *)
let keyinfo_floor = 0.99

(* ---------- reporting ---------- *)

type summary = {
  sw : Spec.workload;
  samples : int;  (** per run, as [run.samples] *)
  runs : run list;
  recall : float;  (** the same on every run: their outputs are identical *)
  layers : (string * float) list;
  trace_info : (string * float) list;
  checks : (string * Json.t) list;
}

let values name runs =
  List.filter_map (fun (r : (string * float) list) -> List.assoc_opt name r) runs

let metric_json (m : Spec.metric) vs ~sample_n =
  let q1, q3 = Stat.quartiles vs in
  let supported =
    if m.Spec.name = "latency_p99_ms" then Stat.supported sample_n 0.99 else true
  in
  Json.Obj
    [ ("unit", Json.Str m.Spec.unit_);
      ( "better",
        Json.Str
          (match m.Spec.better with Spec.Higher -> "higher" | Spec.Lower -> "lower") );
      ("median", Json.Num (Stat.median vs));
      ("q1", Json.Num q1);
      ("q3", Json.Num q3);
      ("n", Json.Num (float_of_int (List.length vs)));
      ("runs", Json.floats vs);
      ("supported", Json.Bool supported) ]

let e2e_values s = List.map (fun r -> r.e2e @ [ ("keyinfo_recall", s.recall) ]) s.runs

let layer_values s = List.map (fun r -> r.gc @ s.layers) s.runs
let serve_values s = List.map (fun r -> r.serve_layers) s.runs

let print_metric (m : Spec.metric) vs ~note =
  let q1, q3 = Stat.quartiles vs in
  Printf.printf "  %-24s = %14.6g %-10s q1 %.6g  q3 %.6g  n=%d%s\n" m.Spec.name
    (Stat.median vs) m.Spec.unit_ q1 q3 (List.length vs) note

let print_summary s ~trace =
  Printf.printf "workload %s: %d run(s), %d samples per run\n" s.sw.Spec.name
    (List.length s.runs) s.samples;
  List.iter
    (fun (m : Spec.metric) ->
      let note =
        if m.Spec.name = "latency_p99_ms" && not (Stat.supported s.samples 0.99) then
          Printf.sprintf "  (only %d samples beyond: unsupported)"
            (Stat.beyond s.samples 0.99)
        else ""
      in
      print_metric m (values m.Spec.name (e2e_values s)) ~note)
    Spec.end_to_end;
  List.iter
    (fun (m : Spec.metric) ->
      match values m.Spec.name (serve_values s) with
      | [] -> ()
      | vs -> print_metric m vs ~note:"")
    Spec.serve_layers;
  if trace then
    List.iter
      (fun (m : Spec.metric) ->
        print_metric m (values m.Spec.name (layer_values s)) ~note:"")
      Spec.per_layer;
  List.iter
    (fun (k, v) -> Printf.printf "  check %-30s %s\n" k (Json.to_string v))
    s.checks

let sum_runs f s = List.fold_left (fun a r -> a + f r) 0 s.runs

let workload_json s ~trace =
  let metrics specs vals =
    List.filter_map
      (fun (m : Spec.metric) ->
        match values m.Spec.name vals with
        | [] -> None
        | vs -> Some (m.Spec.name, metric_json m vs ~sample_n:s.samples))
      specs
  in
  let first = List.hd s.runs in
  Json.Obj
    ([ ("samples", Json.Num (float_of_int s.samples));
       ("attempted", Json.Num (float_of_int (sum_runs (fun r -> r.attempted) s)));
       ("failed", Json.Num (float_of_int (sum_runs (fun r -> r.failed) s)));
       ("digest", Json.Str first.digest);
       ("checks", Json.Obj s.checks);
       ("metrics", Json.Obj (metrics Spec.end_to_end (e2e_values s))) ]
    @ (match metrics Spec.serve_layers (serve_values s) with
      | [] -> []
      | l -> [ ("serve_layers", Json.Obj l) ])
    @
    if trace then
      [ ("per_layer", Json.Obj (metrics Spec.per_layer (layer_values s)));
        ("trace", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.trace_info)) ]
    else [])

(* ---------- run ---------- *)

let run_workloads o =
  let work = Filename.concat perf_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Proc.mkdir_p work;
  Proc.work_dirs := work :: !Proc.work_dirs;
  let prepared =
    List.map
      (fun (w : Spec.workload) ->
        timed (w.Spec.name ^ " inputs") (fun () ->
            prepare ~work ~seed:o.seed ~seconds:o.seconds w))
      o.workloads
  in
  let results = Hashtbl.create 4 in
  let references =
    List.map (fun (p : prepared) -> (p.w.Spec.name, lazy (serve_reference p))) prepared
  in
  (* the parent's own calibrator times set-up and serve's load *)
  let cal = Calib.start () in
  for index = 0 to o.runs - 1 do
    (* alternate the workload order between runs *)
    let order = if index mod 2 = 0 then prepared else List.rev prepared in
    List.iter
      (fun (p : prepared) ->
        let r =
          timed (Printf.sprintf "%s run %d" p.w.Spec.name (index + 1)) @@ fun () ->
          match p.w.Spec.kind with
          | Spec.Batch _ -> run_batch p ~cal ~index
          | Spec.Serve ->
              run_serve p ~cal ~seed:o.seed ~seconds:o.seconds ~cli:o.cli
                ~reference:(List.assoc p.w.Spec.name references)
        in
        Hashtbl.replace results p.w.Spec.name
          (Option.value ~default:[] (Hashtbl.find_opt results p.w.Spec.name) @ [ r ]))
      order
  done;
  Calib.stop cal;
  List.map
    (fun (p : prepared) ->
      let runs = Hashtbl.find results p.w.Spec.name in
      let first = List.hd runs in
      let layers, trace_info =
        match o.trace with
        | Some trace_dir ->
            timed (p.w.Spec.name ^ " traced run") (fun () ->
                run_traced p ~seed:o.seed ~first ~trace_dir)
        | None -> ([], [])
      in
      let traced = Option.is_some o.trace in
      let indices =
        match p.w.Spec.kind with
        | Spec.Batch _ -> Array.init (Array.length p.files) Fun.id
        | Spec.Serve ->
            Array.of_list (List.sort_uniq compare (Array.to_list first.requested))
      in
      let found, total =
        timed (p.w.Spec.name ^ " key-info check") (fun () ->
            keyinfo_recall ~clean:p.clean ~outputs:first.outputs ~indices)
      in
      let recall = if total = 0 then 1.0 else float_of_int found /. float_of_int total in
      let digests_agree = List.for_all (fun r -> r.digest = first.digest) runs in
      let diverged = List.fold_left (fun a r -> a + r.diverged) 0 runs in
      let lateness =
        List.fold_left
          (fun a r ->
            Float.max a
              (Option.value ~default:0.0
                 (List.assoc_opt "serve.gen_late_ms_p99" r.serve_layers)))
          0.0 runs
      in
      let info k = Option.value ~default:0.0 (List.assoc_opt k trace_info) in
      let layer k = Option.value ~default:0.0 (List.assoc_opt k layers) in
      let checks =
        [ ("keyinfo_found", Json.Num (float_of_int found));
          ("keyinfo_indicators", Json.Num (float_of_int total));
          ("diverged", Json.Num (float_of_int diverged)) ]
        @ (match p.w.Spec.kind with
          | Spec.Batch _ -> [ ("digest_identical_across_runs", Json.Bool digests_agree) ]
          | Spec.Serve ->
              [ ("generator_late_ms_p99", Json.Num lateness);
                ("load_valid", Json.Bool (lateness <= 1.0)) ])
        @
        if traced then
          [ ("trace.replay_mismatch", Json.Num (layer "trace.replay_mismatch"));
            ("trace.residual_frac", Json.Num (layer "trace.residual_frac"));
            ("trace.dropped_events", Json.Num (info "dropped_events"));
            ("idempotence_checked", Json.Num (info "idempotence_checked"));
            ("idempotence_failures", Json.Num (info "idempotence_failures")) ]
        else []
      in
      if recall < keyinfo_floor then
        fail "%s: key-info recall %d/%d, below %.2f" p.w.Spec.name found total
          keyinfo_floor;
      if diverged > 0 then fail "%s: %d diverged verdict(s)" p.w.Spec.name diverged;
      if not digests_agree then
        fail "%s: output digest differs between runs" p.w.Spec.name;
      if traced then begin
        if layer "trace.replay_mismatch" > 0.0 then
          fail "%s: %.0f replayed output(s) differ from the end-to-end run"
            p.w.Spec.name (layer "trace.replay_mismatch");
        if layer "trace.residual_frac" >= 0.05 then
          fail "%s: %.1f%% of traced wall is unattributed" p.w.Spec.name
            (100.0 *. layer "trace.residual_frac");
        if info "dropped_events" > 0.0 then
          fail "%s: the trace ring dropped events" p.w.Spec.name
      end;
      if lateness > 1.0 then
        log "%s: load generator ran %.2f ms late at p99; latencies are not valid"
          p.w.Spec.name lateness;
      if info "idempotence_failures" > 0.0 then
        log "%s: %.0f of %.0f sampled outputs change on a second pass" p.w.Spec.name
          (info "idempotence_failures") (info "idempotence_checked");
      { sw = p.w; samples = first.samples; runs; recall; layers; trace_info; checks })
    prepared

let run_cmd args =
  let o = parse_run_args args in
  let traced = Option.is_some o.trace in
  let started = now () in
  (* every child is killed past this point, so a run always ends *)
  child_deadline :=
    started +. (170.0 *. float_of_int (o.runs * List.length o.workloads));
  let summaries = run_workloads o in
  List.iter (print_summary ~trace:traced) summaries;
  let results =
    Json.Obj
      [ ("seed", Json.Num (float_of_int o.seed));
        ("runs", Json.Num (float_of_int o.runs));
        ("seconds", Json.Num o.seconds);
        ("trace", Json.Bool traced);
        ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ( "workloads",
          Json.Obj
            (List.map
               (fun s -> (s.sw.Spec.name, workload_json s ~trace:traced))
               summaries) ) ]
  in
  Proc.mkdir_p (Filename.dirname o.out);
  Json.to_file o.out results;
  Printf.printf "results written to %s (%.1f s)\n" o.out (now () -. started);
  (* the summary line: end-to-end metrics, or per-layer ones when traced *)
  let single = List.length summaries = 1 in
  let metrics =
    List.concat_map
      (fun s ->
        let specs, vals =
          if traced then (Spec.per_layer, layer_values s)
          else (Spec.end_to_end, e2e_values s)
        in
        List.map
          (fun (m : Spec.metric) ->
            ( (if single then m.Spec.name else s.sw.Spec.name ^ "." ^ m.Spec.name),
              Json.Obj
                [ ("value", Json.Num (Stat.median (values m.Spec.name vals)));
                  ("unit", Json.Str m.Spec.unit_) ] ))
          specs)
      summaries
  in
  let total f = List.fold_left (fun a s -> a + sum_runs f s) 0 summaries in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool true);
            ("attempted", Json.Num (float_of_int (total (fun r -> r.attempted))));
            ("failed", Json.Num (float_of_int (total (fun r -> r.failed))));
            ("metrics", Json.Obj metrics) ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "child" :: args -> Child.main args
  | _ :: "run" :: args -> (
      try run_cmd args with
      | Check_failed msg ->
          log "check failed: %s" msg;
          exit 1
      | Proc.Failed msg | Failure msg | Sys_error msg | Json.Parse_error msg ->
          log "error: %s" msg;
          exit 1)
  | _ :: "compare" :: args -> (
      try exit (Compare.main args)
      with Failure msg | Sys_error msg | Json.Parse_error msg ->
        log "error: %s" msg;
        exit 2)
  | _ ->
      prerr_endline
        "usage: perf run [--workload W]... [--seed S] [--runs K] [--seconds T] \
         [--trace DIR] [--out FILE] [--cli PATH]\n\
        \       perf compare A.json B.json [--benchmark BENCHMARK.json]";
      exit 2
