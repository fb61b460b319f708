(** Writing generated corpora to disk.

    The paper releases its 39,713-sample dataset alongside the tool; this
    module materialises our synthetic equivalent as [.ps1] files with a
    manifest carrying ground truth (clean source, techniques applied), so
    external tooling can consume it. *)

let ensure_dir path =
  if not (Sys.file_exists path) then Sys.mkdir path 0o755

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

let manifest_entry (s : Generator.sample) =
  Printf.sprintf
    "  {\"id\": %d, \"family\": \"%s\", \"obfuscated\": \"sample_%04d.ps1\", \
     \"clean\": \"clean_%04d.ps1\", \"techniques\": [%s], \"bytes\": %d}"
    s.Generator.id
    (Pscommon.Telemetry.json_escape s.Generator.family)
    s.Generator.id s.Generator.id
    (String.concat ", "
       (List.map
          (fun t -> Printf.sprintf "\"%s\"" (Obfuscator.Technique.name t))
          s.Generator.techniques))
    (String.length s.Generator.obfuscated)

(** Write samples under [dir]: [sample_NNNN.ps1] (obfuscated),
    [clean_NNNN.ps1] (ground truth) and [manifest.json]. *)
let write ~dir samples =
  ensure_dir dir;
  List.iter
    (fun (s : Generator.sample) ->
      write_file
        (Filename.concat dir (Printf.sprintf "sample_%04d.ps1" s.Generator.id))
        s.Generator.obfuscated;
      write_file
        (Filename.concat dir (Printf.sprintf "clean_%04d.ps1" s.Generator.id))
        s.Generator.clean)
    samples;
  let manifest =
    "[\n" ^ String.concat ",\n" (List.map manifest_entry samples) ^ "\n]\n"
  in
  write_file (Filename.concat dir "manifest.json") manifest;
  List.length samples
