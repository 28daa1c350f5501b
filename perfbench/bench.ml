(* The repository benchmark's entry point (run it through run.py, which
   builds this executable and the CLI first; README.md documents the
   workloads and every metric).

     bench.exe --workload routed-hot --seed 1 --seconds 10 --trace 0 \
       --cli _build/default/bin/shangfortes.exe --golden perfbench/golden

   The last line of standard output is the result:
   {"correct", "attempted", "failed", "metrics"}, with the end-to-end
   metrics under --trace 0 and the per-layer metrics named in
   BENCHMARK.json (read from the working directory) under --trace 1.
   The line before it records the run's fingerprint and, for a traced
   run, the whole per-layer table: under "table" what was measured on
   the workload itself, under "replayed" what in-process replays of
   instance streams through single layers measured. *)

let workloads = [ "routed-hot"; "serve-fresh"; "search-mix"; "exec-large" ]

(* The per-layer metrics a traced run reports are the ones
   BENCHMARK.json lists; every workload's traced run measures each. *)
let listed_layers path =
  let doc = match Json.parse_file path with Ok j -> j | Error e -> failwith (path ^ ": " ^ e) in
  match Json.member "per_layer" doc with
  | Some (Json.Arr ms) ->
    List.map (fun m -> match Json.member "name" m with Some (Json.Str n) -> n | _ -> failwith "per_layer entry without a name") ms
  | _ -> failwith (path ^ ": no per_layer list")

let json_metric (name, value, unit_) = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit_) ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cli = ref "" and golden = ref "" and work_dir = ref ".perfbench-run" in
  let git_rev = ref "unknown" and source_digest = ref "unknown" and write_golden = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: emit the per-layer metrics");
      ("--cli", Arg.Set_string cli, " the built shangfortes executable");
      ("--golden", Arg.Set_string golden, " directory of search-mix golden answers");
      ("--work-dir", Arg.Set_string work_dir, " parent of the per-run temp directories");
      ("--git-rev", Arg.Set_string git_rev, " recorded in the fingerprint");
      ("--source-digest", Arg.Set_string source_digest, " recorded in the fingerprint");
      ("--write-golden", Arg.Set_string write_golden, " regenerate the golden answers into DIR and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds N --trace 0|1 --cli PATH --golden DIR";
  if !write_golden <> "" then (Offline.write_golden !write_golden; exit 0);
  if not (List.mem !workload workloads) then (prerr_endline ("unknown workload " ^ !workload); exit 2);
  if !seconds < 1 || !trace < 0 || !trace > 1 then (prerr_endline "bad --seconds or --trace"; exit 2);
  let absolute p = if p = "" || not (Filename.is_relative p) then p else Filename.concat (Sys.getcwd ()) p in
  let cli = absolute !cli and golden = absolute !golden in
  let listed = if !trace = 1 then listed_layers "BENCHMARK.json" else [] in
  if not (Sys.file_exists cli) then (prerr_endline ("no CLI executable at " ^ cli); exit 2);
  let ctx = { Serving.cli; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1 } in
  let fingerprint =
    [ ("workload", Json.Str !workload); ("seed", Json.Int !seed); ("seconds", Json.Int !seconds);
      ("trace", Json.Int !trace); ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "poll_backend",
        Json.Str
          (match Server.Poll.backend () with Server.Poll.Native_poll -> "poll" | Server.Poll.Select -> "select") );
      ("shangfortes_poll", Json.option (fun s -> Json.Str s) (Sys.getenv_opt "SHANGFORTES_POLL"));
      ("git_rev", Json.Str !git_rev); ("source_digest", Json.Str !source_digest) ]
  in
  Sut.install_signal_handlers ();
  let run () =
    Sut.enter_run_dir ~cli (absolute !work_dir);
    match !workload with
    | "routed-hot" -> Serving.routed_hot ctx
    | "serve-fresh" -> Serving.serve_fresh ctx
    | "search-mix" -> Offline.search_mix ~golden_dir:golden ctx
    | _ -> Offline.exec_large ctx
  in
  match Fun.protect ~finally:Sut.cleanup run with
  | exception Sut.Interrupted s ->
    Printf.eprintf "interrupted by signal %d; children stopped and run directory removed\n%!" s;
    exit 130
  | exception e ->
    Printf.eprintf "benchmark failed: %s\n%!" (Printexc.to_string e);
    exit 1
  | o ->
    let guards_ok = List.for_all snd o.Serving.guards in
    List.iter (fun (g, ok) -> Printf.eprintf "premise %s: %s\n" (if ok then "ok  " else "FAIL") g) o.Serving.guards;
    let table = o.Serving.e2e @ o.Serving.layers in
    List.iter (fun (n, v, u) -> Printf.eprintf "%-52s %14.4f %s\n" n v u) table;
    List.iter (fun (n, v, u) -> Printf.eprintf "%-52s %14.4f %s (replayed)\n" n v u) o.Serving.replayed;
    let metrics =
      if ctx.Serving.trace then
        List.map
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) (o.Serving.layers @ o.Serving.replayed) with
            | Some m -> m
            | None -> failwith ("traced run did not measure " ^ name))
          listed
      else o.Serving.e2e
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("fingerprint", Json.Obj fingerprint);
              ("guards", Json.Obj (List.map (fun (g, ok) -> (g, Json.Bool ok)) o.Serving.guards));
              ("table", Json.Obj (List.map json_metric table));
              ("replayed", Json.Obj (List.map json_metric o.Serving.replayed)) ]));
    let correct = guards_ok && o.Serving.failed = 0 in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool correct); ("attempted", Json.Int o.Serving.attempted);
              ("failed", Json.Int o.Serving.failed); ("metrics", Json.Obj (List.map json_metric metrics)) ]));
    exit (if correct then 0 else 1)
