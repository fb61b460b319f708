(** [perf compare A.json B.json]: one row per (workload, metric) with each
    side's median and quartiles, and a verdict under the bounds fixed in
    BENCHMARK.json.  A is the parent, B the change. *)

type side = { median : float; q1 : float; q3 : float; runs : float list }

let side m =
  { median = Json.to_float (Json.member "median" m);
    q1 = Json.to_float (Json.member "q1" m);
    q3 = Json.to_float (Json.member "q3" m);
    runs = List.map Json.to_float (Json.to_list (Json.member "runs" m)) }

let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

let change a b =
  if a.median = 0.0 then 0.0 else (b.median -. a.median) /. Float.abs a.median

(* how much B is worse than A, as a share of A's median (negative: better) *)
let worse_by better a b =
  match better with Spec.Higher -> -.change a b | Spec.Lower -> change a b

let beats better x y = match better with Spec.Higher -> x > y | Spec.Lower -> x < y

(* every run of [b] reads better than every run of [a] *)
let dominates better a b =
  List.for_all (fun x -> List.for_all (fun y -> beats better x y) a.runs) b.runs

(* The verdict rules: past the bound is worse (or better);
   a spread wider than the bound leaves the metric unresolved unless one
   side wins every pairing of runs. *)
let verdict better ~bound a b =
  let w = worse_by better a b in
  if Float.max (spread a) (spread b) > bound then
    if dominates better a b then "better"
    else if dominates better b a then "worse"
    else "unresolved"
  else if w > bound then "worse"
  else if w < -.bound then "better"
  else "same"

(* For a value the program computes deterministically, on identical inputs
   any change is real: the bound is zero. *)
let exact_verdict better a b =
  if a.median = b.median then "same"
  else if beats better b.median a.median then "better"
  else "worse"

let bounds_of benchmark =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_float (Json.member "bound" m)))
    (Json.to_list (Json.member "end_to_end" benchmark))

let row workload name a b v =
  Printf.printf "%-8s %-24s A %12.6g [%.6g, %.6g]  B %12.6g [%.6g, %.6g]  %+7.2f%%  %s\n"
    workload name a.median a.q1 a.q3 b.median b.q1 b.q3 (100.0 *. change a b) v

(* (name, A, B) for every metric of [key] present on both sides *)
let paired key ja jb =
  match (Json.member_opt key ja, Json.member_opt key jb) with
  | Some a, Some b ->
      List.filter_map
        (fun (name, ma) ->
          Option.map
            (fun mb -> (name, side ma, side mb))
            (List.assoc_opt name (Json.to_obj b)))
        (Json.to_obj a)
  | _ -> []

let failed_frac j =
  Stat.ratio
    (Json.to_float (Json.member "failed" j))
    (Json.to_float (Json.member "attempted" j))

let main args =
  let benchmark = ref "BENCHMARK.json" in
  let rec files acc = function
    | "--benchmark" :: f :: rest ->
        benchmark := f;
        files acc rest
    | f :: rest -> files (f :: acc) rest
    | [] -> List.rev acc
  in
  match files [] args with
  | [ fa; fb ] ->
      let bounds = bounds_of (Json.of_file !benchmark) in
      let ra = Json.of_file fa and rb = Json.of_file fb in
      let wb = Json.to_obj (Json.member "workloads" rb) in
      let bad = ref 0 and differs = ref 0 in
      List.iter
        (fun (w, ja) ->
          match List.assoc_opt w wb with
          | None -> Printf.printf "%-8s missing from %s\n" w fb
          | Some jb ->
              let fa_ = failed_frac ja and fb_ = failed_frac jb in
              let v = if fb_ > fa_ +. 0.001 then "worse" else "same" in
              if v = "worse" then incr bad;
              Printf.printf "%-8s %-24s A %12.6g  B %12.6g  %s\n" w "failed_frac" fa_
                fb_ v;
              (* identical inputs make the program's own counts comparable *)
              let same_inputs =
                Json.member "samples" ja = Json.member "samples" jb
                && Json.member_opt "seed" ra = Json.member_opt "seed" rb
                && Json.member_opt "seconds" ra = Json.member_opt "seconds" rb
              in
              List.iter
                (fun (name, a, b) ->
                  match (Spec.find name, List.assoc_opt name bounds) with
                  | Some m, Some bound ->
                      let v =
                        if m.Spec.exact && same_inputs then exact_verdict m.Spec.better a b
                        else verdict m.Spec.better ~bound a b
                      in
                      if v = "worse" then incr bad;
                      row w name a b v
                  | _ -> row w name a b "?")
                (paired "metrics" ja jb);
              List.iter
                (fun (name, a, b) ->
                  let v =
                    match Spec.find name with
                    | Some m when m.Spec.exact && same_inputs ->
                        if a.median = b.median then "exact"
                        else begin
                          incr differs;
                          "differs"
                        end
                    | _ -> "-"
                  in
                  row w name a b v)
                (paired "per_layer" ja jb @ paired "serve_layers" ja jb);
              if same_inputs then
                Printf.printf "%-8s %-24s %s\n" w "outputs"
                  (if Json.member "digest" ja = Json.member "digest" jb then "identical"
                   else "differ"))
        (Json.to_obj (Json.member "workloads" ra));
      if !differs > 0 then
        Printf.printf "%d deterministic count(s) differ on identical inputs\n" !differs;
      if !bad > 0 then 1 else 0
  | _ ->
      prerr_endline "usage: perf compare A.json B.json [--benchmark BENCHMARK.json]";
      2
