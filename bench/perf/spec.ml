(** What the benchmark measures: its metrics and its workloads.  The names
    and units here must match BENCHMARK.json; the smoke test checks that
    every metric listed there is printed with its unit. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  exact : bool;
      (** a value the program computes deterministically: two runs over the
          same inputs must agree exactly *)
}

let m ?(exact = false) name unit_ better = { name; unit_; better; exact }

let end_to_end =
  [ m "samples_per_s" "samples/s" Higher;
    m "latency_p50_ms" "ms" Lower;
    m "latency_p99_ms" "ms" Lower;
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MiB" Lower;
    m ~exact:true "verified_frac" "ratio" Higher;
    m ~exact:true "score_reduction" "ratio" Higher;
    m ~exact:true "keyinfo_recall" "ratio" Higher ]

(* Means per sample unless the name says otherwise.  See README.md for what
   each one covers and which end-to-end metric it should move. *)
let per_layer =
  [ m "pseval.eval_ms" "ms" Lower;
    m ~exact:true "pseval.evals" "count" Lower;
    m "recover.lookup_ms" "ms" Lower;
    m ~exact:true "recover.cache_hit_rate" "ratio" Higher;
    m "recover.pass_ms" "ms" Lower;
    m ~exact:true "recover.passes" "count" Lower;
    m ~exact:true "recover.layers" "count" Lower;
    m "psparse.ms" "ms" Lower;
    m "psparse.reparse_ms" "ms" Lower;
    m "token_phase.ms" "ms" Lower;
    m "simplify.ms" "ms" Lower;
    m "dynamic.ms" "ms" Lower;
    m ~exact:true "dynamic.regions" "count" Lower;
    m ~exact:true "dynamic.recovered_ratio" "ratio" Higher;
    m "rename.ms" "ms" Lower;
    m "reformat.ms" "ms" Lower;
    m "verify.ms" "ms" Lower;
    m ~exact:true "verify.sandbox_runs" "count" Lower;
    m ~exact:true "verify.rollback_ratio" "ratio" Lower;
    m "gc.minor_mb" "MiB" Lower;
    m "gc.major_collections" "count" Lower;
    m "trace.overhead_frac" "ratio" Lower;
    m "trace.residual_frac" "ratio" Lower;
    m ~exact:true "trace.replay_mismatch" "count" Lower ]

(* The daemon's own layers, measured at the client in every serve run.
   They exist on [serve] alone, so they are reported there and are not in
   BENCHMARK.json, whose per-layer metrics every workload measures. *)
let serve_layers =
  [ m "serve.server_ms_p50" "ms" Lower;
    m "serve.server_ms_p99" "ms" Lower;
    m "serve.outside_ms_p50" "ms" Lower;
    m "serve.outside_ms_p99" "ms" Lower;
    m "serve.cache_hit_rate" "ratio" Higher;
    m "serve.gen_late_ms_p99" "ms" Lower ]

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer @ serve_layers)

type kind =
  | Batch of (seed:int -> count:int -> Corpus.Generator.sample list)
  | Serve

type workload = {
  name : string;
  kind : kind;
  rate : float;
      (** samples per second of the measured child's wall time, start to
          exit, at the commit that defined the benchmark, on a 2-vCPU
          x86-64 VM.  It turns [--seconds] into a corpus size, so a run's
          work depends only on its arguments and both sides of a comparison
          process identical inputs; a run then lasts about [--seconds]. *)
}

(* Seed-independent inputs come from this one: serve's pool of scripts and
   the largest inputs of [wild] and [layered]. *)
let fixed_seed = 1

(* Samples that apply encode-whitespace to the output of encode-bxor, about
   one in 7 000 of a wild draw, are left out.  On some of them the program
   diverges at the commit that defined the benchmark, and a diverged verdict
   fails the run: 3 of 576 000 [wild] samples over forty seeds did, all of
   that kind, and no other sample. *)
let diverges (s : Corpus.Generator.sample) =
  let open Obfuscator.Technique in
  List.mem Enc_whitespace s.Corpus.Generator.techniques
  && List.mem Enc_bxor s.Corpus.Generator.techniques

(* [n] samples of [gen]'s draw on [seed] that satisfy [keep], in order; the
   generators draw each sample from its own split of the seed, so a longer
   draw starts with the shorter one *)
let first_kept gen ~keep ~seed n =
  let rec draw count =
    let kept = List.filter keep (gen ~seed ~count) in
    if List.length kept >= n then List.filteri (fun i _ -> i < n) kept
    else draw (count + (count / 4) + 8)
  in
  draw (n + (n / 8) + 8)

(* The latency tail is the largest inputs, and their cost varies a lot from
   one input to another of the same size, so drawn by the seed they, not
   the program, set p99.  Inputs of [tail_bytes] and more are therefore
   [fixed_seed]'s on every seed, in [fixed_seed]'s slots; every other slot
   takes the next of the seed's own inputs under [tail_bytes]. *)
let with_fixed_tail gen ~tail_bytes ~seed ~count =
  let keep (s : Corpus.Generator.sample) =
    String.length s.Corpus.Generator.obfuscated < tail_bytes && not (diverges s)
  in
  let reference = first_kept gen ~keep:(fun s -> not (diverges s)) ~seed:fixed_seed count in
  let own = ref (first_kept gen ~keep ~seed (List.length (List.filter keep reference))) in
  List.map
    (fun r ->
      if keep r then (
        match !own with
        | s :: rest ->
            own := rest;
            s
        | [] -> r)
      else r)
    reference

(* [wild]: 2.4% of the inputs are 4 KB or more; they were 80 of the 91
   samples at or above p99 on one seed, and with them drawn by the seed p99
   spread by 10% over six seeds. *)
let wild ~seed ~count =
  with_fixed_tail Corpus.Generator.generate ~tail_bytes:4096 ~seed ~count

(* [layered]: 60% [generate_hard], then [generate_multilayer] on the next
   seed.  Its inputs of 8 KB and more are 8.5% of the samples and take 42%
   of the wall time, and every sample at or above p99 was one of them.
   Between inputs of one size their cost differed up to threefold (40 ms
   on one seed, 113 ms on another). *)
let layered ~seed ~count =
  let hard = count * 3 / 5 in
  let multilayer ~seed ~count =
    Corpus.Generator.generate_multilayer ~seed:(seed + 1) ~count ~min_depth:1 ~max_depth:4
  in
  with_fixed_tail Corpus.Generator.generate_hard ~tail_bytes:8192 ~seed ~count:hard
  @ with_fixed_tail multilayer ~tail_bytes:8192 ~seed ~count:(count - hard)

(* Why these four: [wild] spends its time evaluating distinct pieces and
   inserting them into the piece cache; [layered] is large recursive IEX
   unwrapping with a tail-bound p99; [dynamic] runs the provenance walker on
   tiny scripts where parse and cache costs vanish; [serve] is the daemon's
   cache-hit path plus NDJSON, socket and queue work.  Each layer metric is
   exercised by one of them and bypassed by another. *)
let workloads =
  [ { name = "wild"; rate = 600.0; kind = Batch wild };
    { name = "layered"; rate = 170.0; kind = Batch layered };
    { name = "dynamic"; rate = 1050.0;
      kind =
        Batch (fun ~seed ~count -> Corpus.Generator.generate_dynamic ~seed ~count) };
    { name = "serve"; rate = 300.0; kind = Serve } ]

let workload name = List.find_opt (fun (w : workload) -> w.name = name) workloads
