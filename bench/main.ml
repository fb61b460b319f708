(* The paper-experiment runner: one target per table, figure or section
   of the paper that EXPERIMENTS.md reproduces,
     table1 table2 fig5 fig6 table3 table4 table5 case ablate amsi unknown
     limits funnel
   Run them by name (`main.exe table2 fig6`); no argument runs them all.
   Performance evidence comes from the benchmark in bench/perf, not from
   this runner. *)

let line () = print_endline (String.make 78 '-')

let run_table1 () =
  line ();
  Experiments.Table1.print (Experiments.Table1.run ())

let run_table2 () =
  line ();
  Experiments.Table2.print (Experiments.Table2.run ())

let shared_set = lazy (Experiments.Effectiveness.make_samples ())

let run_fig5 () =
  line ();
  Experiments.Effectiveness.print_fig5
    (Experiments.Effectiveness.run_fig5 (Lazy.force shared_set))

let run_fig6 () =
  line ();
  Experiments.Effectiveness.print_fig6
    (Experiments.Effectiveness.run_fig6 (Lazy.force shared_set))

let run_table3 () =
  line ();
  Experiments.Table3.print (Experiments.Table3.run ())

let run_table4 () =
  line ();
  Experiments.Table4.print (Experiments.Table4.run (Lazy.force shared_set))

let run_table5 () =
  line ();
  Experiments.Table5.print (Experiments.Table5.run ())

let run_case () =
  line ();
  Experiments.Case_study.print ()

let run_ablate () =
  line ();
  Experiments.Ablation.print (Experiments.Ablation.run ())

let run_amsi () =
  line ();
  Experiments.Amsi_compare.print
    (Experiments.Amsi_compare.run (Lazy.force shared_set))

let run_unknown () =
  line ();
  Experiments.Unknown_techniques.print (Experiments.Unknown_techniques.run ())

let run_limits () =
  line ();
  Experiments.Limitations.print (Experiments.Limitations.run ())

let run_funnel () =
  line ();
  Experiments.Preprocess_stats.print (Experiments.Preprocess_stats.run ())

let registry =
  [ ("table1", run_table1); ("table2", run_table2); ("fig5", run_fig5);
    ("fig6", run_fig6); ("table3", run_table3); ("table4", run_table4);
    ("table5", run_table5); ("case", run_case); ("ablate", run_ablate);
    ("amsi", run_amsi); ("unknown", run_unknown); ("limits", run_limits);
    ("funnel", run_funnel) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as names) ->
      List.iter
        (fun name ->
          match List.assoc_opt name registry with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" name
                (String.concat " " (List.map fst registry));
              exit 1)
        names
  | _ -> List.iter (fun (_, f) -> f ()) registry
