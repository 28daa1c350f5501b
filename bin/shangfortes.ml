(* Command-line front end for the Shang-Fortes mapping machinery.

   $ shangfortes hnf -m "1,7,1,1;1,7,1,0"
   $ shangfortes analyze -m "1,1,-1;1,4,1" --mu 4,4,4
   $ shangfortes optimize --algorithm matmul --mu 4 -s "1,1,-1"
   $ shangfortes simulate --algorithm tc --mu 4 -s "0,0,1" --pi 5,1,1
   $ shangfortes search --algorithm matmul --mu 4 --array-dim 1 --jobs 4

   Every subcommand accepts --format json for versioned
   machine-consumable output (schema v2), --trace[=FILE] for a Chrome
   trace_event dump of the run, and --metrics for the observability
   counters; plain text is the default.  The contract lives in
   docs/SCHEMA.md. *)

open Cmdliner

let parse_vector s =
  try List.map (fun x -> int_of_string (String.trim x)) (String.split_on_char ',' s)
  with Failure _ -> failwith ("cannot parse vector: " ^ s)

let parse_matrix s =
  let rows = List.map parse_vector (String.split_on_char ';' s) in
  Intmat.of_ints rows

(* ------------------------- shared: output format ------------------- *)

type output_format = Plain | Json_v2

let format_arg =
  Arg.(
    value
    & opt (enum [ ("plain", Plain); ("json", Json_v2) ]) Plain
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: plain (default) or json (versioned, schema_version 4).")

let json_of_vec = Server.Handlers.json_of_vec
let json_of_mat = Server.Protocol.json_of_mat
let json_of_int_array = Server.Handlers.json_of_int_array

(* --------------------- shared: observability ----------------------- *)

type obs_opts = { trace_out : string option; show_metrics : bool }

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt ~vopt:(Some "trace.json") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Collect hierarchical trace spans for the run and write them as Chrome \
             trace_event JSON to $(docv) (default trace.json; load in chrome://tracing \
             or Perfetto).  With --format json the span tree is also embedded in the \
             report as the 'spans' field.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Report the observability counters/gauges/histograms: as a 'metrics' field \
             with --format json, as a trailing block on stderr otherwise.")
  in
  Term.(
    const (fun trace_out show_metrics -> { trace_out; show_metrics })
    $ trace_arg $ metrics_arg)

let obs_begin o =
  Obs.Metrics.reset ();
  if o.trace_out <> None then Obs.Trace.enable ()

(* Append the requested observability fields to a JSON report (the
   search command always carries "metrics"; don't duplicate it). *)
let obs_fields o fields =
  let fields =
    if o.show_metrics && not (List.mem_assoc "metrics" fields) then
      fields @ [ ("metrics", Obs.Export.metrics (Obs.Metrics.snapshot ())) ]
    else fields
  in
  if o.trace_out <> None then
    fields @ [ ("spans", Obs.Export.span_tree (Obs.Trace.spans ())) ]
  else fields

let obs_end o fmt =
  (match o.trace_out with
  | None -> ()
  | Some path ->
    Obs.Trace.disable ();
    Obs.Export.write_file path (Obs.Export.chrome_trace (Obs.Trace.spans ()));
    let dropped = Obs.Trace.dropped () in
    if dropped > 0 then
      Printf.eprintf "trace: %d span(s) dropped (capacity %d)\n%!" dropped
        Obs.Trace.capacity;
    Printf.eprintf "trace written to %s\n%!" path);
  if o.show_metrics && fmt = Plain then
    Format.eprintf "metrics:@,@[<v 2>  %a@]@." Obs.Metrics.pp (Obs.Metrics.snapshot ())

(* ------------------------------- hnf ------------------------------- *)

let hnf_cmd =
  let matrix =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "matrix" ] ~docv:"ROWS" ~doc:"Matrix, rows separated by ';'.")
  in
  let run m fmt obs =
    obs_begin obs;
    let t = parse_matrix m in
    let res = Hnf.compute t in
    let basis = Hnf.kernel_basis t in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"hnf"
           (obs_fields obs
              [
                ("t", json_of_mat t);
                ("h", json_of_mat res.Hnf.h);
                ("u", json_of_mat res.Hnf.u);
                ("v", json_of_mat res.Hnf.v);
                ("rank", Json.Int res.Hnf.rank);
                ("verified", Json.Bool (Hnf.verify t res));
                ("kernel_basis", Json.Arr (List.map json_of_vec basis));
              ]))
    | Plain ->
      Printf.printf "T =\n%s\nH = T U =\n%s\nU =\n%s\nV = U^-1 =\n%s\nrank = %d\nverified: %b\n"
        (Intmat.to_string t) (Intmat.to_string res.Hnf.h) (Intmat.to_string res.Hnf.u)
        (Intmat.to_string res.Hnf.v) res.Hnf.rank (Hnf.verify t res);
      (match basis with
      | [] -> print_endline "kernel: trivial"
      | basis ->
        print_endline "kernel basis (conflict-vector generators):";
        List.iter (fun g -> Printf.printf "  %s\n" (Intvec.to_string g)) basis));
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "hnf" ~doc:"Hermite normal form with multiplier U and V = U^-1 (Theorem 4.1)")
    Term.(const run $ matrix $ format_arg $ obs_term)

(* ----------------------------- analyze ----------------------------- *)

let mu_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "mu" ] ~docv:"MU" ~doc:"Index-set upper bounds, comma separated.")

(* The historical human-readable method names, extended with the
   engine's lattice oracle. *)
let decided_by_pretty = function
  | Analysis.Theorem Family.Full_rank_square -> "square full-rank test"
  | Analysis.Theorem Family.Adjugate_form -> "Theorem 3.1 (adjugate closed form)"
  | Analysis.Theorem Family.Column_infeasible ->
    "Theorem 4.4 (a kernel column fits in the box)"
  | Analysis.Theorem Family.Hermite_n_minus_2 -> "Theorem 4.7 (sufficient)"
  | Analysis.Theorem Family.Hermite_n_minus_3 -> "corrected Theorem 4.8 (sufficient)"
  | Analysis.Theorem Family.Gcd_sufficient -> "Theorem 4.5 (gcd, sufficient)"
  | Analysis.Box_oracle -> "exact box oracle"
  | Analysis.Lattice_oracle -> "exact lattice oracle (LLL)"

let analyze_cmd =
  let matrix =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "matrix" ] ~docv:"ROWS"
          ~doc:"Mapping matrix T = [S; Pi], rows separated by ';' (last row is Pi).")
  in
  let run m mu_s fmt obs =
    obs_begin obs;
    let t = parse_matrix m in
    let mu = Array.of_list (parse_vector mu_s) in
    if Array.length mu <> Intmat.cols t then failwith "mu arity does not match T";
    let k = Intmat.rows t and n = Intmat.cols t in
    let verdict = Analysis.check ~mu t in
    let generators =
      List.map
        (fun g -> (g, Conflict.is_feasible ~mu g))
        (Conflict.kernel_basis t)
    in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"analyze"
           (obs_fields obs
           [
             ("t", json_of_mat t);
             ("mu", json_of_int_array mu);
             ("rank", Json.Int (Intmat.rank t));
             ("full_rank", Json.Bool verdict.Analysis.full_rank);
             ("conflict_free", Json.Bool verdict.Analysis.conflict_free);
             ("decided_by", Json.Str (Analysis.decided_by_name verdict.Analysis.decided_by));
             ("witness", Json.option json_of_vec verdict.Analysis.witness);
             ("timing_ms", Json.Float (1000. *. verdict.Analysis.timing));
             ( "generators",
               Json.Arr
                 (List.map
                    (fun (g, feasible) ->
                      Json.Obj
                        [ ("vector", json_of_vec g); ("feasible", Json.Bool feasible) ])
                    generators) );
           ]))
    | Plain ->
      Printf.printf "T (%dx%d) =\n%s\nrank = %d (need %d for a (k-1)-dimensional array)\n"
        k n (Intmat.to_string t) (Intmat.rank t) k;
      Printf.printf "conflict-free on J = [0,mu]: %b   [decided by %s]\n"
        verdict.Analysis.conflict_free (decided_by_pretty verdict.Analysis.decided_by);
      (match verdict.Analysis.witness with
      | Some g -> Printf.printf "witness conflict vector: %s\n" (Intvec.to_string g)
      | None -> ());
      (match generators with
      | [] -> ()
      | generators ->
        print_endline "conflict-vector generators:";
        List.iter
          (fun (g, feasible) ->
            Printf.printf "  %s  (feasible: %b)\n" (Intvec.to_string g) feasible)
          generators));
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Conflict analysis of a mapping matrix (Theorems 2.2, 3.1, 4.3-4.8)")
    Term.(const run $ matrix $ mu_arg $ format_arg $ obs_term)

(* ------------------------------ family ----------------------------- *)

(* JSON and text renderings of the piecewise mu-condition; the grammar
   and this schema are documented in docs/FAMILIES.md.  Atom constants
   are emitted as strings — they are exact integers that can exceed a
   JSON consumer's native range. *)
let rec json_of_cond = function
  | Family.True -> Json.Obj [ ("op", Json.Str "true") ]
  | Family.False -> Json.Obj [ ("op", Json.Str "false") ]
  | Family.Lt (i, c) ->
    Json.Obj
      [ ("op", Json.Str "lt"); ("i", Json.Int i); ("c", Json.Str (Zint.to_string c)) ]
  | Family.All cs ->
    Json.Obj [ ("op", Json.Str "all"); ("args", Json.Arr (List.map json_of_cond cs)) ]
  | Family.Any cs ->
    Json.Obj [ ("op", Json.Str "any"); ("args", Json.Arr (List.map json_of_cond cs)) ]

let rec cond_to_text = function
  | Family.True -> "true"
  | Family.False -> "false"
  | Family.Lt (i, c) -> Printf.sprintf "mu_%d < %s" i (Zint.to_string c)
  | Family.All cs -> "(" ^ String.concat " and " (List.map cond_to_text cs) ^ ")"
  | Family.Any cs -> "(" ^ String.concat " or " (List.map cond_to_text cs) ^ ")"

let json_of_shape = function
  | Family.Const_free -> Json.Obj [ ("kind", Json.Str "const-free") ]
  | Family.Always_residual -> Json.Obj [ ("kind", Json.Str "residual") ]
  | Family.Adjugate gamma ->
    Json.Obj
      [
        ("kind", Json.Str "adjugate");
        ("gamma", json_of_vec gamma);
        ("free_iff", json_of_cond (Family.escape_cond gamma));
      ]
  | Family.Cascade { kernel; sufficient } ->
    Json.Obj
      [
        ("kind", Json.Str "cascade");
        ("kernel", Json.Arr (List.map json_of_vec kernel));
        ( "sufficient",
          match sufficient with
          | None -> Json.Null
          | Some (m, c) ->
            Json.Obj
              [
                ("method", Json.Str (Family.method_name m));
                ("cond", json_of_cond c);
              ] );
      ]

let family_cmd =
  let matrix =
    Arg.(
      required
      & opt (some string) None
      & info [ "m"; "matrix" ] ~docv:"ROWS"
          ~doc:"Mapping matrix T = [S; Pi], rows separated by ';' (last row is Pi).")
  in
  let mu_opt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mu" ] ~docv:"MU"
          ~doc:
            "Optional instance bounds: also evaluate the family verdict at this mu and \
             report the decided (or residual) outcome.")
  in
  let run m mu_s fmt obs =
    obs_begin obs;
    let t = parse_matrix m in
    let fam = Analysis.family t in
    let mu =
      Option.map
        (fun s ->
          let mu = Array.of_list (parse_vector s) in
          if Array.length mu <> Intmat.cols t then failwith "mu arity does not match T";
          mu)
        mu_s
    in
    let evaluation = Option.map (fun mu -> (mu, Family.eval fam ~mu)) mu in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"family"
           (obs_fields obs
              ([
                 ("t", json_of_mat t);
                 ("k", Json.Int fam.Family.k);
                 ("n", Json.Int fam.Family.n);
                 ("full_rank", Json.Bool fam.Family.full_rank);
                 ("shape", Json.Str (Family.shape_name fam));
                 ("family", Json.Str (Family.to_string fam));
                 ("condition", json_of_shape fam.Family.shape);
               ]
               @
               match evaluation with
               | None -> []
               | Some (mu, ev) ->
                 [
                   ("mu", json_of_int_array mu);
                   ( "eval",
                     match ev with
                     | Family.Residual ->
                       Json.Obj [ ("decided", Json.Bool false) ]
                     | Family.Decided { conflict_free; method_; witness } ->
                       Json.Obj
                         [
                           ("decided", Json.Bool true);
                           ("conflict_free", Json.Bool conflict_free);
                           ("decided_by", Json.Str (Family.method_name method_));
                           ("witness", Json.option json_of_vec witness);
                         ] );
                 ])))
    | Plain ->
      Printf.printf "T (%dx%d) =\n%s\nfamily shape: %s   (full rank: %b)\n"
        fam.Family.k fam.Family.n (Intmat.to_string t) (Family.shape_name fam)
        fam.Family.full_rank;
      (match fam.Family.shape with
      | Family.Const_free -> print_endline "conflict-free for every mu"
      | Family.Always_residual ->
        print_endline "no closed form applies; every instance needs concrete analysis"
      | Family.Adjugate gamma ->
        Printf.printf "unique conflict vector gamma = %s\nfree iff %s\n"
          (Intvec.to_string gamma)
          (cond_to_text (Family.escape_cond gamma))
      | Family.Cascade { kernel; sufficient } ->
        print_endline "kernel columns (conflict iff one fits the box):";
        List.iter (fun w -> Printf.printf "  %s\n" (Intvec.to_string w)) kernel;
        (match sufficient with
        | None ->
          print_endline "sufficient arm: none (subset cap); survivors are residual"
        | Some (m, c) ->
          Printf.printf "sufficient (%s): %s\n" (Family.method_name m) (cond_to_text c)));
      Printf.printf "codec: %s\n" (Family.to_string fam);
      match evaluation with
      | None -> ()
      | Some (mu, ev) -> (
        Printf.printf "at mu = %s: "
          (String.concat "," (List.map string_of_int (Array.to_list mu)));
        match ev with
        | Family.Residual -> print_endline "residual (falls back to concrete analysis)"
        | Family.Decided { conflict_free; method_; witness } ->
          Printf.printf "conflict-free = %b   [decided by %s]\n" conflict_free
            (Family.method_name method_);
          Option.iter
            (fun w -> Printf.printf "witness conflict vector: %s\n" (Intvec.to_string w))
            witness));
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "family"
       ~doc:
         "Symbolic mu-parametric conflict analysis: the piecewise family verdict of a \
          mapping matrix (docs/FAMILIES.md)")
    Term.(const run $ matrix $ mu_opt_arg $ format_arg $ obs_term)

(* ------------------------- shared: algorithms ---------------------- *)

(* The resolution lives in [Server.Handlers] so the daemon serves the
   same catalogue; the CLI keeps its historical [Failure] errors. *)
let builtin_algorithm name mu =
  try Server.Handlers.builtin_algorithm name mu
  with Server.Handlers.Bad_request msg -> failwith msg

let algorithm_arg =
  Arg.(
    value
    & opt string "matmul"
    & info [ "a"; "algorithm" ] ~docv:"NAME" ~doc:"matmul, tc, convolution, bitmm or lu.")

let mu_int_arg =
  Arg.(value & opt int 4 & info [ "mu" ] ~docv:"N" ~doc:"Problem size (loop upper bound).")

let s_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "space" ] ~docv:"ROWS"
        ~doc:"Space mapping S, rows separated by ';' (default: the paper's choice).")

let resolve_s s_opt default_s =
  match (s_opt, default_s) with
  | Some s, _ -> parse_matrix s
  | None, Some s -> s
  | None, None -> failwith "no default space mapping; pass -s"

(* The objective bound [Σ |pi_i| mu_i] a schedule search walked up to,
   which an empty answer names: [--max-objective] when given, else
   Procedure 5.1's default. *)
let objective_bound ?max_objective (alg : Algorithm.t) =
  match max_objective with
  | Some m -> m
  | None -> Procedure51.default_max_objective (Index_set.bounds alg.Algorithm.index_set)

(* ----------------------------- optimize ---------------------------- *)

let optimize_cmd =
  let method_arg =
    Arg.(
      value
      & opt string "p51"
      & info [ "method" ] ~docv:"M" ~doc:"p51 (Procedure 5.1) or ilp (formulation (5.1)-(5.2)).")
  in
  let routing_arg =
    Arg.(value & flag & info [ "routing" ] ~doc:"Require SD = PK routing on nearest-neighbor links.")
  in
  let bound_arg =
    Arg.(value & opt (some int) None & info [ "max-objective" ] ~docv:"N" ~doc:"Search bound.")
  in
  let run name mu s_opt method_ routing bound fmt obs =
    obs_begin obs;
    let alg, default_s = builtin_algorithm name mu in
    let s = resolve_s s_opt default_s in
    let base_fields =
      [
        ("algorithm", Json.Str name);
        ("mu", Json.Int mu);
        ("s", json_of_mat s);
        ("method", Json.Str method_);
      ]
    in
    let emit fields =
      Json.print (Json.versioned ~command:"optimize" (obs_fields obs fields))
    in
    (match method_ with
    | "p51" ->
      (match Procedure51.optimize ~require_routing:routing ?max_objective:bound alg ~s with
      | Some r ->
        (match fmt with
        | Json_v2 ->
          emit
            (base_fields
            @ [
                ("pi", json_of_vec r.Procedure51.pi);
                ("total_time", Json.Int r.Procedure51.total_time);
                ("candidates_tried", Json.Int r.Procedure51.candidates_tried);
                ("routing", Json.option Server.Handlers.json_of_routing r.Procedure51.routing);
              ])
        | Plain ->
          Printf.printf "Pi = %s\ntotal time = %d\ncandidates tried = %d\n"
            (Intvec.to_string r.Procedure51.pi) r.Procedure51.total_time
            r.Procedure51.candidates_tried;
          (match r.Procedure51.routing with
          | Some rt ->
            Printf.printf "hops = (%s)  buffers = (%s)\n"
              (String.concat "," (Array.to_list (Array.map string_of_int rt.Tmap.hops)))
              (String.concat "," (Array.to_list (Array.map string_of_int rt.Tmap.buffers)))
          | None -> ()))
      | None ->
        (match fmt with
        | Json_v2 -> emit (base_fields @ [ ("pi", Json.Null) ])
        | Plain ->
          Printf.printf "no conflict-free schedule within the search bound (objective up to %d)\n"
            (objective_bound ?max_objective:bound alg)))
    | "ilp" ->
      (match Ilp_form.optimize alg ~s with
      | Some sol ->
        (match fmt with
        | Json_v2 ->
          emit
            (base_fields
            @ [
                ("pi", json_of_vec sol.Ilp_form.pi);
                ("total_time", Json.Int (sol.Ilp_form.objective + 1));
                ("branch", Json.Str sol.Ilp_form.branch);
                ("gamma", json_of_vec sol.Ilp_form.gamma);
              ])
        | Plain ->
          Printf.printf "Pi = %s\ntotal time = %d\nbinding branch: %s\ngamma = %s\n"
            (Intvec.to_string sol.Ilp_form.pi)
            (sol.Ilp_form.objective + 1)
            sol.Ilp_form.branch
            (Intvec.to_string sol.Ilp_form.gamma))
      | None ->
        (match fmt with
        | Json_v2 -> emit (base_fields @ [ ("pi", Json.Null) ])
        | Plain -> print_endline "no solution"))
    | other -> failwith ("unknown method: " ^ other));
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Find the time-optimal conflict-free schedule (Problem 2.2)")
    Term.(
      const run $ algorithm_arg $ mu_int_arg $ s_arg $ method_arg $ routing_arg $ bound_arg
      $ format_arg $ obs_term)

(* ----------------------------- simulate ---------------------------- *)

let simulate_cmd =
  let pi_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "pi" ] ~docv:"PI" ~doc:"Linear schedule vector, comma separated.")
  in
  (* --table was called --trace before 1.2.0; the old name now selects
     span tracing, uniformly with every other subcommand. *)
  let table_arg =
    Arg.(value & flag & info [ "table" ] ~doc:"Print the execution table.")
  in
  let run name mu s_opt pi_s table fmt obs =
    obs_begin obs;
    let alg, default_s = builtin_algorithm name mu in
    let s = resolve_s s_opt default_s in
    let pi = Intvec.of_ints (parse_vector pi_s) in
    let tm = Tmap.make ~s ~pi in
    let r = Exec.run alg Dataflow.semantics tm in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"simulate"
           (obs_fields obs (Server.Handlers.simulate_fields ~algorithm:name ~mu ~s ~pi r)))
    | Plain ->
      Printf.printf
        "makespan = %d\nprocessors = %d\ncomputations = %d\nconflicts = %d\n\
         causality violations = %d\nlink collisions = %d\nbuffers = (%s)\n\
         verification = %s\nutilization = %.3f\n"
        r.Exec.makespan r.Exec.num_processors r.Exec.computations
        (List.length r.Exec.conflicts)
        (List.length r.Exec.causality_violations)
        (List.length r.Exec.collisions)
        (String.concat "," (Array.to_list (Array.map string_of_int r.Exec.max_buffer_occupancy)))
        (Exec.verification_name r.Exec.verified)
        r.Exec.utilization;
      List.iter
        (fun c ->
          Printf.printf "conflict at t=%d pe=(%s): %d points\n" c.Exec.time
            (String.concat "," (Array.to_list (Array.map string_of_int c.Exec.pe)))
            (List.length c.Exec.points))
        r.Exec.conflicts;
      if table then
        if Tmap.k tm = 2 then print_string (Trace.linear_array_table alg tm)
        else print_string (Trace.firing_list alg tm));
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Cycle-accurate simulation of an algorithm under a mapping")
    Term.(
      const run $ algorithm_arg $ mu_int_arg $ s_arg $ pi_arg $ table_arg $ format_arg
      $ obs_term)

(* ------------------------------- exec ------------------------------ *)

let exec_cmd =
  let exec_algorithm_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "algorithm" ] ~docv:"NAME"
          ~doc:"Case study to execute: matmul, tc, or all (default).")
  in
  let scenario_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "scenario" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated scenario names from the default matrix (e.g. \
             matmul-8,tc-8-alt), or all (default).")
  in
  let dtype_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "dtype" ] ~docv:"NAMES"
          ~doc:"Comma-separated dtypes: int, int32, float, or all (default).")
  in
  let exec_mu_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mu" ] ~docv:"N,..."
          ~doc:
            "Build the scenario list from these sizes (optimal schedules) instead of \
             the default matrix.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: the runtime's recommended domain count).")
  in
  let block_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "block" ] ~docv:"N"
          ~doc:"Points of one wavefront executed per domain task (default 256).")
  in
  let run algorithm scenarios dtype mu_s jobs block fmt obs =
    obs_begin obs;
    let algorithms =
      match algorithm with
      | "all" -> [ "matmul"; "tc" ]
      | ("matmul" | "tc") as a -> [ a ]
      | other -> failwith ("unknown algorithm " ^ other ^ " (matmul, tc, all)")
    in
    let specs =
      match mu_s with
      | Some s ->
        List.concat_map
          (fun a -> List.map (fun mu -> Scenario.scenario a ~mu) (parse_vector s))
          algorithms
      | None ->
        List.filter
          (fun (sp : Scenario.spec) -> List.mem sp.Scenario.algorithm algorithms)
          Scenario.default_scenarios
    in
    let specs =
      match scenarios with
      | "all" -> specs
      | names ->
        let names = String.split_on_char ',' names in
        let picked =
          List.filter (fun (sp : Scenario.spec) -> List.mem sp.Scenario.name names) specs
        in
        if picked = [] then failwith ("no scenario matches " ^ scenarios);
        picked
    in
    let dtypes =
      match dtype with
      | "all" -> Scenario.types
      | names ->
        List.map
          (fun n ->
            match Scenario.type_by_name (String.trim n) with
            | Some t -> t
            | None -> failwith ("unknown dtype " ^ n ^ " (int, int32, float)"))
          (String.split_on_char ',' names)
    in
    let pool = Engine.Pool.create ?jobs () in
    let cells = Scenario.run_matrix ~pool ?block specs dtypes in
    let all_ok = List.for_all Scenario.cell_ok cells in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"exec"
           (obs_fields obs
              [
                ("jobs", Json.Int (Engine.Pool.jobs pool));
                ("cells", Json.Arr (List.map Scenario.json_of_cell cells));
                ("all_verified", Json.Bool all_ok);
              ]))
    | Plain ->
      Printf.printf "%-14s %-6s %9s %6s %8s %6s %11s %6s %s\n" "scenario" "dtype"
        "cells" "PEs" "cycles" "util" "GFLOP/s" "check" "movement";
      List.iter
        (fun (c : Scenario.cell) ->
          Printf.printf "%-14s %-6s %9d %6d %8d %5.3f %11.4f %6s %s\n"
            c.Scenario.spec.Scenario.name c.Scenario.dtype c.Scenario.cells
            c.Scenario.processors c.Scenario.makespan c.Scenario.utilization
            c.Scenario.gflops
            (if c.Scenario.verified then "ok"
             else Printf.sprintf "%d!" c.Scenario.mismatches)
            (if Scenario.movement_clean c.Scenario.movement then "clean" else "NOT CLEAN"))
        cells;
      Printf.printf "%d cells, %d domains: %s\n" (List.length cells)
        (Engine.Pool.jobs pool)
        (if all_ok then "all verified" else "VERIFICATION FAILED"));
    obs_end obs fmt;
    if not all_ok then exit 1
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Execute the paper's case studies through the compiled multicore kernel over \
          the SCENARIOS x TYPES matrix, verifying every cell against the reference \
          evaluator and checking its data movement (docs/EXECUTOR.md)")
    Term.(
      const run $ exec_algorithm_arg $ scenario_arg $ dtype_arg $ exec_mu_arg
      $ jobs_arg $ block_arg $ format_arg $ obs_term)

(* ------------------------------ parse ------------------------------ *)

let parse_cmd =
  let src_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE"
          ~doc:"Loop nest, e.g. 'for i = 0..4, j = 0..4, k = 0..4 { C[i,j] = C[i,j] + A[i,k]*B[k,j] }'.")
  in
  let optimize_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "optimize" ] ~docv:"S"
          ~doc:"Also find the time-optimal schedule for this space mapping (rows ';'-separated).")
  in
  let space_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "array-dim" ] ~docv:"K"
          ~doc:"Also search the cheapest conflict-free K-dimensional array (Problem 6.1).")
  in
  let run src opt_s array_dim fmt obs =
    obs_begin obs;
    match Loopnest.parse_result src with
    | Error e ->
      (match fmt with
      | Json_v2 ->
        Json.print
          (Json.versioned ~command:"parse" [ ("error", Json.Str (Loopnest.error_to_string e)) ])
      | Plain -> prerr_endline (Loopnest.error_to_string e));
      exit 1
    | Ok a ->
      let alg = a.Loopnest.algorithm in
      let opt_result =
        Option.map
          (fun s ->
            let s = parse_matrix s in
            (s, Procedure51.optimize alg ~s))
          opt_s
      in
      let pi_found =
        match opt_result with
        | Some (_, Some r) -> Some r.Procedure51.pi
        | _ -> None
      in
      let space_result =
        Option.map
          (fun dim ->
            let pi =
              match pi_found with
              | Some pi -> pi
              | None -> (
                (* Use the cost-minimal free schedule as Problem 6.1's
                   given Pi. *)
                match Procedure51.minimal_schedule alg with
                | Some pi -> pi
                | None -> failwith "no valid schedule exists")
            in
            (pi, Space_opt.optimize alg ~pi ~k:(dim + 1)))
          array_dim
      in
      (match fmt with
      | Json_v2 ->
        let mu = Index_set.bounds alg.Algorithm.index_set in
        Json.print
          (Json.versioned ~command:"parse"
             (obs_fields obs
             [
               ("name", Json.Str alg.Algorithm.name);
               ("loop_vars", Json.Arr (List.map (fun v -> Json.Str v) a.Loopnest.loop_vars));
               ("mu", json_of_int_array mu);
               ("dependences", json_of_mat alg.Algorithm.dependences);
               ( "dependence_origin",
                 Json.Arr
                   (List.map
                      (fun (d, why) ->
                        Json.Obj [ ("d", json_of_vec d); ("why", Json.Str why) ])
                      a.Loopnest.dependence_origin) );
               ( "optimize",
                 Json.option
                   (fun (s, r) ->
                     Json.Obj
                       [
                         ("s", json_of_mat s);
                         ( "pi",
                           Json.option (fun r -> json_of_vec r.Procedure51.pi) r );
                         ( "total_time",
                           Json.option (fun r -> Json.Int r.Procedure51.total_time) r );
                       ])
                   opt_result );
               ( "space",
                 Json.option
                   (fun (pi, r) ->
                     Json.Obj
                       [
                         ("pi", json_of_vec pi);
                         ("s", Json.option (fun r -> json_of_mat r.Space_opt.s) r);
                         ( "processors",
                           Json.option (fun r -> Json.Int r.Space_opt.processors) r );
                         ( "wire_length",
                           Json.option (fun r -> Json.Int r.Space_opt.wire_length) r );
                       ])
                   space_result );
             ]))
      | Plain ->
        Format.printf "%a@." Loopnest.pp_analysis a;
        (match opt_result with
        | None -> ()
        | Some (_, Some r) ->
          Printf.printf "optimal Pi = %s, total time = %d\n"
            (Intvec.to_string r.Procedure51.pi) r.Procedure51.total_time
        | Some (_, None) ->
          Printf.printf "no conflict-free schedule found with objective up to %d\n"
            (objective_bound alg));
        (match space_result with
        | None -> ()
        | Some (_, Some r) ->
          Printf.printf "space-optimal S =\n%s\nprocessors = %d, wire length = %d\n"
            (Intmat.to_string r.Space_opt.s) r.Space_opt.processors r.Space_opt.wire_length
        | Some (_, None) ->
          print_endline "no conflict-free space mapping in the searched family"));
      obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Extract (J, D) from a nested-loop program; optionally optimize and place it")
    Term.(const run $ src_arg $ optimize_arg $ space_arg $ format_arg $ obs_term)

(* ------------------------------ pareto ------------------------------ *)

let dim_arg =
  Arg.(value & opt int 1 & info [ "array-dim" ] ~docv:"K" ~doc:"Array dimension (default 1).")

let collision_free_arg =
  Arg.(
    value & flag
    & info [ "collision-free" ]
        ~doc:"Also require link-collision freedom ([23]'s stricter model).")

let collision_accept alg collision_free pi s =
  (not collision_free)
  ||
  let tm = Tmap.make ~s ~pi in
  match Tmap.find_routing tm ~d:alg.Algorithm.dependences with
  | Some routing -> Linkcheck.predict alg tm routing = []
  | None -> false

let print_pareto_front front =
  if front = [] then print_endline "no achievable points found"
  else
    List.iter
      (fun (p : Search.pareto_point) ->
        Printf.printf "t = %-4d PEs = %-4d Pi = %-12s S = %s\n" p.total_time p.processors
          (Intvec.to_string p.pi) (Intmat.to_string p.s))
      front

let pareto_cmd =
  let run name mu dim collision_free fmt obs =
    obs_begin obs;
    let alg, _ = builtin_algorithm name mu in
    let front =
      Search.pareto_front ~pool:(Engine.Pool.create ~jobs:1 ())
        ~accept:(collision_accept alg collision_free) alg ~k:(dim + 1)
    in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"pareto"
           (obs_fields obs
              [
                ("algorithm", Json.Str name);
                ("mu", Json.Int mu);
                ("array_dim", Json.Int dim);
                ("collision_free", Json.Bool collision_free);
                ("points", Json.Arr (List.map Server.Handlers.json_of_pareto_point front));
              ]))
    | Plain -> print_pareto_front front);
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "pareto" ~doc:"Achievable (total time, processors) trade-off (Problems 2.1/6.2)")
    Term.(
      const run $ algorithm_arg $ mu_int_arg $ dim_arg $ collision_free_arg $ format_arg
      $ obs_term)

(* ------------------------------ search ------------------------------ *)

let search_cmd =
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: the runtime's recommended domain count).")
  in
  let slack_arg =
    Arg.(
      value
      & opt int 8
      & info [ "time-slack" ] ~docv:"L"
          ~doc:"Extra total-time levels explored past the joint optimum (pareto mode).")
  in
  let pareto_arg =
    Arg.(
      value & flag
      & info [ "pareto" ]
          ~doc:"Pareto mode: scan the unit space-mapping family for the time/processor \
                front ($(b,--array-dim) sets the dimension).  Default mode enumerates all \
                time-optimal schedules for the space mapping $(b,-s).")
  in
  let run name mu s_opt dim pareto_mode collision_free jobs slack fmt obs =
    obs_begin obs;
    let alg, default_s = builtin_algorithm name mu in
    let pool = Engine.Pool.create ?jobs () in
    let base_fields =
      [
        ("algorithm", Json.Str name);
        ("mu", Json.Int mu);
        ("jobs", Json.Int (Engine.Pool.jobs pool));
      ]
    in
    (* v2: the v1 "telemetry" blob is gone; search always reports the
       engine's metrics registry (docs/SCHEMA.md). *)
    let finish fields plain =
      let snap = Obs.Metrics.snapshot () in
      match fmt with
      | Json_v2 ->
        Json.print
          (Json.versioned ~command:"search"
             (obs_fields obs (base_fields @ fields @ [ ("metrics", Obs.Export.metrics snap) ])))
      | Plain ->
        plain ();
        Format.printf "metrics:@,@[<v 2>  %a@]@." Obs.Metrics.pp snap
    in
    if pareto_mode then begin
      let front =
        Search.pareto_front ~pool ~time_slack:slack
          ~accept:(collision_accept alg collision_free) alg ~k:(dim + 1)
      in
      finish
        [
          ("mode", Json.Str "pareto");
          ("array_dim", Json.Int dim);
          ("collision_free", Json.Bool collision_free);
          ("points", Json.Arr (List.map Server.Handlers.json_of_pareto_point front));
        ]
        (fun () -> print_pareto_front front)
    end
    else begin
      let s = resolve_s s_opt default_s in
      let schedules = Search.all_optimal_schedules ~pool alg ~s in
      let best = Search.buffer_minimal ~pool alg ~s schedules in
      finish (Server.Handlers.schedules_fields ~s schedules best) (fun () ->
          (match schedules with
          | [] ->
            Printf.printf "no conflict-free schedule found with objective up to %d\n"
              (objective_bound alg)
          | schedules ->
            Printf.printf "%d time-optimal conflict-free schedule(s):\n"
              (List.length schedules);
            List.iter (fun pi -> Printf.printf "  Pi = %s\n" (Intvec.to_string pi)) schedules);
          match best with
          | Some (pi, rt) ->
            Printf.printf "buffer-minimal: Pi = %s (%d registers)\n" (Intvec.to_string pi)
              (Array.fold_left ( + ) 0 rt.Tmap.buffers)
          | None -> ())
    end;
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Parallel mapping search: all time-optimal schedules for a space mapping, \
          or the time/processor Pareto front (with $(b,--pareto))")
    Term.(
      const run $ algorithm_arg $ mu_int_arg $ s_arg $ dim_arg $ pareto_arg
      $ collision_free_arg $ jobs_arg $ slack_arg $ format_arg $ obs_term)

(* ------------------------------- fuzz ------------------------------ *)

let json_of_instance (inst : Check.Instance.t) =
  Json.Obj
    [
      ("mu", json_of_int_array inst.Check.Instance.mu);
      ("t", json_of_mat inst.Check.Instance.tmat);
    ]

let json_of_failure (f : Check.Diff.failure) =
  Json.Obj
    [
      ("index", Json.Int f.Check.Diff.index);
      ("instance", json_of_instance f.Check.Diff.instance);
      ("shrunk", json_of_instance f.Check.Diff.shrunk);
      ("oracle_conflict_free", Json.Bool f.Check.Diff.oracle_free);
      ( "disagreements",
        Json.Arr
          (List.map
             (fun (d : Check.Diff.disagreement) ->
               Json.Obj
                 [
                   ("path", Json.Str (Check.Diff.path_name d.Check.Diff.path));
                   ("detail", Json.Str d.Check.Diff.detail);
                 ])
             f.Check.Diff.disagreements) );
    ]

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Stream seed.")
  in
  let count_arg =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N" ~doc:"Instances to check.")
  in
  let size_arg =
    Arg.(
      value
      & opt int 3
      & info [ "size" ] ~docv:"N"
          ~doc:
            "Size parameter: scales index-set bounds, matrix entries and dimension \
             together (see Check.Gen).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (default: the runtime's recommended domain count).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist every shrunk failing instance as DIR/fuzz-seed<seed>-<index>.case \
             for regression replay (the repository uses test/corpus).")
  in
  let run seed count size jobs corpus fmt obs =
    obs_begin obs;
    if size < 1 || size > 8 then failwith "--size must be between 1 and 8";
    if count < 1 then failwith "--count must be positive";
    let report = Check.Diff.run ?jobs ~seed ~count ~size () in
    let saved =
      match corpus with
      | None -> []
      | Some dir ->
        List.map
          (fun (f : Check.Diff.failure) ->
            let name = Printf.sprintf "fuzz-seed%d-%d" seed f.Check.Diff.index in
            let comment =
              Printf.sprintf "found by: shangfortes fuzz --seed %d --count %d --size %d\n%s"
                seed count size
                (String.concat "\n"
                   (List.map
                      (fun (d : Check.Diff.disagreement) ->
                        Check.Diff.path_name d.Check.Diff.path ^ ": " ^ d.Check.Diff.detail)
                      f.Check.Diff.disagreements))
            in
            Check.Corpus.save ~dir ~name ~comment f.Check.Diff.shrunk)
          report.Check.Diff.failures
    in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"fuzz"
           (obs_fields obs
              [
                ("seed", Json.Int report.Check.Diff.seed);
                ("size", Json.Int report.Check.Diff.size);
                ("jobs", Json.Int report.Check.Diff.jobs);
                ("checked", Json.Int report.Check.Diff.checked);
                ("failures", Json.Arr (List.map json_of_failure report.Check.Diff.failures));
                ("corpus_files", Json.Arr (List.map (fun p -> Json.Str p) saved));
              ]))
    | Plain ->
      Printf.printf "checked %d instances (seed %d, size %d, %d domains)\n"
        report.Check.Diff.checked report.Check.Diff.seed report.Check.Diff.size
        report.Check.Diff.jobs;
      (match report.Check.Diff.failures with
      | [] -> print_endline "all fast paths agree with the brute-force oracle"
      | failures ->
        List.iter
          (fun (f : Check.Diff.failure) ->
            Printf.printf "FAILURE at stream index %d (oracle: %s):\n" f.Check.Diff.index
              (if f.Check.Diff.oracle_free then "conflict-free" else "conflict");
            List.iter
              (fun (d : Check.Diff.disagreement) ->
                Printf.printf "  %s: %s\n"
                  (Check.Diff.path_name d.Check.Diff.path)
                  d.Check.Diff.detail)
              f.Check.Diff.disagreements;
            Format.printf "  original: @[%a@]@." Check.Instance.pp f.Check.Diff.instance;
            Format.printf "  shrunk:   @[%a@]@." Check.Instance.pp f.Check.Diff.shrunk)
          failures;
        List.iter (Printf.printf "saved corpus case: %s\n") saved));
    obs_end obs fmt;
    if report.Check.Diff.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: every conflict-freedom fast path against the brute-force \
          (processor, time) collision oracle, with counterexample shrinking")
    Term.(
      const run $ seed_arg $ count_arg $ size_arg $ jobs_arg $ corpus_arg $ format_arg
      $ obs_term)

(* ------------------------------ stats ------------------------------ *)

let stats_cmd =
  let pi_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "pi" ] ~docv:"PI" ~doc:"Linear schedule vector, comma separated.")
  in
  let run name mu s_opt pi_s fmt obs =
    obs_begin obs;
    let alg, default_s = builtin_algorithm name mu in
    let s = resolve_s s_opt default_s in
    let tm = Tmap.make ~s ~pi:(Intvec.of_ints (parse_vector pi_s)) in
    let st = Stats.compute alg tm in
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"stats"
           (obs_fields obs
              [
                ("algorithm", Json.Str name);
                ("mu", Json.Int mu);
                ("processors", Json.Int st.Stats.processors);
                ("makespan", Json.Int st.Stats.makespan);
                ("computations", Json.Int st.Stats.computations);
                ("utilization", Json.Float st.Stats.utilization);
                ("max_pe_load", Json.Int st.Stats.max_pe_load);
                ("min_pe_load", Json.Int st.Stats.min_pe_load);
                ("peak_parallelism", Json.Int st.Stats.peak_parallelism);
                ("wire_length", Json.Int st.Stats.wire_length);
              ]))
    | Plain -> Format.printf "%a@." Stats.pp st);
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Array statistics of a mapping (PEs, utilization, wire length)")
    Term.(const run $ algorithm_arg $ mu_int_arg $ s_arg $ pi_arg $ format_arg $ obs_term)

(* ------------------------------- serve ----------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "shangfortes.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path (ignored with $(b,--port)).")

(* Shared by serve, client and chaos: the wire dialect (docs/SERVER.md).
   Servers advertise the newest dialect they accept; clients pick the
   dialect to negotiate. *)
let transport_conv = Arg.enum [ ("json", Server.Wire.V1); ("binary", Server.Wire.V2) ]

let serve_transport_arg =
  Arg.(
    value
    & opt transport_conv Server.Wire.V2
    & info [ "transport" ] ~docv:"T"
        ~doc:
          "Newest wire dialect a $(i,hello) may negotiate: $(b,binary) (default) offers \
           the v2 length-prefixed framing, $(b,json) pins connections to v1 JSON lines.")

let client_transport_arg =
  Arg.(
    value
    & opt transport_conv Server.Wire.V1
    & info [ "transport" ] ~docv:"T"
        ~doc:
          "Wire dialect to negotiate: $(b,json) (default, v1 JSON lines) or $(b,binary) \
           (v2 length-prefixed framing via a $(i,hello) handshake).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N" ~doc:"Listen on TCP 127.0.0.1:$(docv) instead of a Unix socket.")

let serve_cmd =
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Pool width (default: runtime choice).  The daemon runs $(docv) - 1 worker \
             domains, each serving one queued request at a time: at least one, and at \
             least two once it has admitted a $(i,search), $(i,simulate) or \
             $(i,replay); a $(i,search) fans out across $(docv) domains.")
  in
  let store_path_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE" ~doc:"Persistent verdict store journal.")
  in
  let fsync_arg =
    Arg.(
      value & opt int 32
      & info [ "fsync-every" ] ~docv:"N" ~doc:"Records between store fsyncs.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Hash-indexed store snapshot ($(b,compact) writes it): the store \
             warm-starts from it and serves memory misses out of its index \
             (docs/CLUSTER.md).")
  in
  let run socket port jobs store_path fsync_every snapshot_path max_transport fmt obs =
    obs_begin obs;
    let listen =
      match port with
      | Some p -> Server.Daemon.Tcp p
      | None -> Server.Daemon.Unix_sock socket
    in
    let cfg =
      {
        (Server.Daemon.default_config listen) with
        Server.Daemon.jobs;
        store_path;
        snapshot_path;
        fsync_every;
        max_transport;
      }
    in
    let t = Server.Daemon.create cfg in
    (match Server.Daemon.store t with
    | Some st ->
      let s = Server.Store.stats st in
      Printf.eprintf "store: %d records in %.1f ms (%s)\n%!" s.Server.Store.entries
        s.Server.Store.open_ms s.Server.Store.provenance
    | None -> ());
    (* [wake] is the only thing a signal handler may touch: one
       self-pipe write, no locks.  [run] turns it into a graceful
       drain — accepted work answered exactly and flushed. *)
    let handler = Sys.Signal_handle (fun _ -> Server.Daemon.wake t) in
    let old_int = Sys.signal Sys.sigint handler in
    let old_term = Sys.signal Sys.sigterm handler in
    (match Server.Daemon.port t with
    | Some p -> Printf.eprintf "serving on 127.0.0.1:%d\n%!" p
    | None -> Printf.eprintf "serving on %s\n%!" socket);
    Server.Daemon.run t;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"serve" (obs_fields obs (Server.Daemon.stats_fields t)))
    | Plain ->
      prerr_endline "drained";
      List.iter
        (fun (k, v) -> Printf.printf "%s = %s\n" k (Json.to_string v))
        (Server.Daemon.stats_fields t));
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the mapping-query daemon: a backpressured service speaking the \
          versioned wire protocol (JSON lines and negotiated binary framing) with a \
          persistent verdict store (protocol in docs/SERVER.md)")
    Term.(
      const run $ socket_arg $ port_arg $ jobs_arg $ store_path_arg $ fsync_arg
      $ snapshot_arg $ serve_transport_arg $ format_arg $ obs_term)

(* ------------------------------ compact ---------------------------- *)

let compact_cmd =
  let store_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"FILE" ~doc:"Store journal to compact.")
  in
  let snapshot_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:"Snapshot file to write (replaced atomically; also merged in when it \
                already exists).")
  in
  let run store_path snapshot fmt obs =
    obs_begin obs;
    let st = Server.Store.open_ ~snapshot store_path in
    let before = Server.Store.stats st in
    let records = Server.Store.compact_to_snapshot st ~snapshot in
    Server.Store.close st;
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"compact"
           (obs_fields obs
              [
                ("store", Json.Str store_path);
                ("snapshot", Json.Str snapshot);
                ("records", Json.Int records);
                ("open_ms", Json.Float before.Server.Store.open_ms);
                ("provenance", Json.Str before.Server.Store.provenance);
              ]))
    | Plain ->
      Printf.printf "%d records -> %s (journal truncated; opened from %s in %.1f ms)\n"
        records snapshot before.Server.Store.provenance before.Server.Store.open_ms);
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Rotate a store journal into a hash-indexed snapshot: every live record moves \
          into the sorted, CRC-footed snapshot file and the journal is truncated to a \
          bare header, so the next open is O(1) seeks instead of a full replay \
          (docs/CLUSTER.md)")
    Term.(const run $ store_arg $ snapshot_arg $ format_arg $ obs_term)

(* ------------------------------- route ----------------------------- *)

(* Socket specs accepted by [route --shard] and [client --shards]:
   "tcp:PORT", "tcp:HOST:PORT", or a Unix socket path (optionally
   "unix:PATH"). *)
let parse_addr spec : Server.Client.addr =
  let fail () =
    raise
      (Invalid_argument
         (Printf.sprintf "bad address %S (want tcp:PORT, tcp:HOST:PORT or a socket path)"
            spec))
  in
  match String.split_on_char ':' spec with
  | [ "tcp"; port ] -> (
    match int_of_string_opt port with Some p -> `Tcp ("127.0.0.1", p) | None -> fail ())
  | [ "tcp"; host; port ] -> (
    match int_of_string_opt port with Some p -> `Tcp (host, p) | None -> fail ())
  | [ "unix"; path ] -> `Unix path
  | [ _ ] when spec <> "" -> `Unix spec
  | _ -> fail ()

let parse_shard_spec spec =
  match String.split_on_char ',' spec with
  | primary :: rest ->
    let follower = ref None and journal = ref None in
    List.iter
      (fun field ->
        match String.index_opt field '=' with
        | Some i -> (
          let k = String.sub field 0 i
          and v = String.sub field (i + 1) (String.length field - i - 1) in
          match k with
          | "follower" -> follower := Some (parse_addr v)
          | "journal" -> journal := Some v
          | _ -> raise (Invalid_argument ("unknown shard spec key: " ^ k)))
        | None -> raise (Invalid_argument ("bad shard spec field (want key=value): " ^ field)))
      rest;
    { Cluster.Router.primary = parse_addr primary; follower = !follower; journal = !journal }
  | [] -> raise (Invalid_argument "empty shard spec")

let route_cmd =
  let shard_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "shard" ] ~docv:"SPEC"
          ~doc:
            "One shard (repeatable, ring order): \
             $(i,ADDR)[,follower=$(i,ADDR)][,journal=$(i,FILE)] where $(i,ADDR) is \
             $(b,tcp:PORT), $(b,tcp:HOST:PORT) or a Unix socket path.  $(i,journal) \
             (the primary's store journal) plus $(i,follower) enable replication and \
             promotion-on-death.")
  in
  let pool_arg =
    Arg.(
      value & opt int 2
      & info [ "pool" ] ~docv:"N" ~doc:"Pipelined upstream connections per shard.")
  in
  let health_interval_arg =
    Arg.(
      value & opt int 1000
      & info [ "health-interval-ms" ] ~docv:"MS"
          ~doc:"Milliseconds between shard health probes (and shipping pumps).")
  in
  let health_threshold_arg =
    Arg.(
      value & opt int 3
      & info [ "health-threshold" ] ~docv:"N"
          ~doc:"Consecutive probe failures before the follower is promoted.")
  in
  let vnodes_arg =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"N" ~doc:"Consistent-hash ring points per shard.")
  in
  let shard_transport_arg =
    Arg.(
      value
      & opt transport_conv Server.Wire.V2
      & info [ "shard-transport" ] ~docv:"T"
          ~doc:"Wire dialect towards the shards: $(b,binary) (default) or $(b,json).")
  in
  let hedge_delay_arg =
    Arg.(
      value & opt int 0
      & info [ "hedge-delay-ms" ] ~docv:"MS"
          ~doc:
            "Hedge analyze requests still unanswered after $(docv) on the shard's \
             follower: $(b,0) (default) adapts to twice the shard's observed p99, \
             a positive value fixes the delay, $(b,-1) disables hedging.")
  in
  let hedge_budget_arg =
    Arg.(
      value & opt int 64
      & info [ "hedge-budget" ] ~docv:"N"
          ~doc:"Hedge token-bucket capacity (refills one budget per second); \
                $(b,0) disables hedging.")
  in
  let latency_limit_arg =
    Arg.(
      value & opt float 500.
      & info [ "latency-limit-ms" ] ~docv:"MS"
          ~doc:
            "Probe-latency EWMA above which a shard's circuit breaker opens and \
             its analyze traffic diverts to the follower; $(b,0) disables the \
             breaker.")
  in
  let run socket port shards pool health_interval_ms health_threshold vnodes
      shard_transport max_transport hedge_delay_ms hedge_budget latency_limit_ms fmt obs =
    obs_begin obs;
    let listen =
      match port with
      | Some p -> Server.Daemon.Tcp p
      | None -> Server.Daemon.Unix_sock socket
    in
    let hedge =
      if hedge_delay_ms < 0 then Cluster.Router.No_hedge
      else if hedge_delay_ms = 0 then Cluster.Router.Adaptive
      else Cluster.Router.Fixed_ms hedge_delay_ms
    in
    let cfg =
      {
        Cluster.Router.listen;
        shards = List.map parse_shard_spec shards;
        pool_size = pool;
        shard_transport;
        max_transport;
        health_interval_ms;
        health_threshold;
        vnodes;
        hedge;
        hedge_budget;
        latency_limit_ms;
      }
    in
    let t = Cluster.Router.create cfg in
    let handler = Sys.Signal_handle (fun _ -> Cluster.Router.wake t) in
    let old_int = Sys.signal Sys.sigint handler in
    let old_term = Sys.signal Sys.sigterm handler in
    (match Cluster.Router.port t with
    | Some p -> Printf.eprintf "routing on 127.0.0.1:%d (%d shards)\n%!" p (List.length shards)
    | None -> Printf.eprintf "routing on %s (%d shards)\n%!" socket (List.length shards));
    Cluster.Router.run t;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    (match fmt with
    | Json_v2 ->
      Json.print
        (Json.versioned ~command:"route" (obs_fields obs (Cluster.Router.stats_fields t)))
    | Plain ->
      prerr_endline "drained";
      List.iter
        (fun (k, v) -> Printf.printf "%s = %s\n" k (Json.to_string v))
        (Cluster.Router.stats_fields t));
    obs_end obs fmt
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster router: consistent-hash analyze requests across daemon \
          shards, ship each shard's journal to its follower, and promote followers \
          on shard death (docs/CLUSTER.md)")
    Term.(
      const run $ socket_arg $ port_arg $ shard_arg $ pool_arg $ health_interval_arg
      $ health_threshold_arg $ vnodes_arg $ shard_transport_arg $ serve_transport_arg
      $ hedge_delay_arg $ hedge_budget_arg $ latency_limit_arg $ format_arg $ obs_term)

(* ------------------------------- client ----------------------------- *)

let client_cmd =
  let requests_arg =
    Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 8
      & info [ "concurrency" ] ~docv:"N" ~doc:"Connections, all driven from one thread.")
  in
  let distinct_arg =
    Arg.(
      value & opt int 64
      & info [ "distinct" ] ~docv:"N"
          ~doc:"Distinct instances in the cycled pool (a second pass over the stream \
                hits the server's warm store).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Instance stream seed.")
  in
  let size_arg =
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Instance stream size parameter.")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip comparing each reply against a local direct Analysis.check.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Deadline stamped on every request; a server answers deadline_exceeded, \
             without computing, to one that arrives with none left (0).")
  in
  let expect_no_shed_arg =
    Arg.(
      value & flag
      & info [ "expect-no-shed" ] ~doc:"Exit nonzero when any request was shed (CI mode).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  let pipeline_arg =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"N"
          ~doc:"Requests kept in flight per connection (replies are matched by id).")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "shards" ] ~docv:"ADDRS"
          ~doc:
            "Comma-separated addresses ($(b,tcp:PORT), $(b,tcp:HOST:PORT) or socket \
             paths) to round-robin the connections over — a router plus direct shard \
             sockets, or a whole fleet; every reply is still verified byte-for-byte \
             against local analysis, whichever server produced it.  Overrides \
             $(b,--socket)/$(b,--port).")
  in
  let run socket port shards requests concurrency distinct seed size no_verify
      deadline_ms transport pipeline expect_no_shed out fmt obs =
    obs_begin obs;
    let addrs =
      match shards with
      | Some specs -> List.map parse_addr specs
      | None ->
        [ (match port with Some p -> `Tcp ("127.0.0.1", p) | None -> `Unix socket) ]
    in
    let cfg =
      {
        Server.Client.requests;
        concurrency;
        distinct;
        seed;
        size;
        verify = not no_verify;
        deadline_ms;
        transport;
        pipeline;
      }
    in
    let r = Server.Client.load_any addrs cfg in
    let doc =
      Json.versioned ~command:"client"
        (obs_fields obs
           (match Server.Client.json_of_load_report r with
           | Json.Obj fields -> fields
           | other -> [ ("report", other) ]))
    in
    (match out with None -> () | Some path -> Obs.Export.write_file path doc);
    (match fmt with
    | Json_v2 -> Json.print doc
    | Plain ->
      Printf.printf
        "%d requests (%s transport, pipeline %d): %d ok, %d shed, %d draining, %d \
         errors, %d disagreement(s)\n\
         p50 = %.2f ms  p95 = %.2f ms  p99 = %.2f ms  max = %.2f ms\n\
         %.0f requests/s over %.2f s\n"
        r.Server.Client.sent r.Server.Client.transport r.Server.Client.pipeline
        r.Server.Client.ok r.Server.Client.shed r.Server.Client.draining
        r.Server.Client.errors r.Server.Client.disagreements r.Server.Client.p50_ms
        r.Server.Client.p95_ms r.Server.Client.p99_ms r.Server.Client.max_ms
        r.Server.Client.rps r.Server.Client.wall_s);
    obs_end obs fmt;
    if
      r.Server.Client.disagreements > 0
      || r.Server.Client.errors > 0
      || (expect_no_shed && r.Server.Client.shed > 0)
    then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Load-generate against a running daemon and verify its replies against direct \
          local analysis")
    Term.(
      const run $ socket_arg $ port_arg $ shards_arg $ requests_arg $ concurrency_arg
      $ distinct_arg $ seed_arg $ size_arg $ no_verify_arg $ deadline_arg
      $ client_transport_arg $ pipeline_arg $ expect_no_shed_arg $ out_arg $ format_arg
      $ obs_term)

(* ------------------------------- chaos ----------------------------- *)

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seeds the instance stream, the fault plan and the retry jitter.")
  in
  let requests_arg =
    Arg.(value & opt int 500 & info [ "requests" ] ~docv:"N" ~doc:"Total requests to drive.")
  in
  let distinct_arg =
    Arg.(
      value & opt int 32
      & info [ "distinct" ] ~docv:"N" ~doc:"Distinct instances in the cycled pool.")
  in
  let size_arg =
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc:"Instance stream size parameter.")
  in
  let faults_arg =
    Arg.(
      value
      & opt
          (list (enum (List.map (fun c -> (c, c)) Fault.Plan.classes)))
          [ "io"; "worker"; "conn" ]
      & info [ "faults" ] ~docv:"CLASSES"
          ~doc:
            ("Comma-separated fault classes to arm: "
            ^ String.concat ", " Fault.Plan.classes
            ^ "."))
  in
  let delay_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "delay-ms" ] ~docv:"MS"
          ~doc:
            "Stall applied by fired $(i,latency)-class consults (default 25, or \
             50 under $(b,--cluster)); ambient — applied, never logged per event.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.1
      & info [ "rate" ] ~docv:"P" ~doc:"Per-consult fault probability in [0,1].")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Pool domains of the single daemon (default: runtime choice); fleet \
             daemons run one each.")
  in
  let expect_converged_arg =
    Arg.(
      value & flag
      & info [ "expect-converged" ]
          ~doc:
            "Exit nonzero unless the run converged: zero verdict disagreements and zero \
             lost acknowledged writes (CI mode).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the JSON report to $(docv).")
  in
  let fault_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-log" ] ~docv:"FILE"
          ~doc:
            "Write the canonical fault log (one $(i,site#seq action) line each) to \
             $(docv); two runs with the same seed must produce identical files.")
  in
  let kill_arg =
    Arg.(
      value
      & opt (enum [ ("drain", false); ("hard", true) ]) false
      & info [ "kill" ] ~docv:"MODE"
          ~doc:
            "How $(b,--cluster) kills the doomed shard: $(b,drain) (default, \
             graceful) or $(b,hard) (SIGKILL-grade abort — queued work and \
             buffered replies discarded; pair with $(b,--fsync-every) 1 to audit \
             the sync-per-ack durability contract).")
  in
  let chaos_fsync_arg =
    Arg.(
      value & opt int 4
      & info [ "fsync-every" ] ~docv:"N"
          ~doc:"Store sync interval of every daemon the run boots.")
  in
  let slo_arg =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:
            "Three-pass SLO audit under $(b,--cluster): fault-free baseline, gray \
             (latency faults) with hedging, gray without; convergence then also \
             requires hedged p99 within max(3x baseline, 25 ms) while unhedged \
             degrades past it.  With the default $(b,--faults) the armed classes \
             become just $(i,latency).")
  in
  let no_hedge_arg =
    Arg.(
      value & flag
      & info [ "no-hedge" ]
          ~doc:"Disable router hedging in the $(b,--cluster) main pass.")
  in
  let cluster_arg =
    Arg.(
      value & opt int 0
      & info [ "cluster" ] ~docv:"SHARDS"
          ~doc:
            "Run the $(i,cluster) chaos harness instead: boot $(docv) shard daemons \
             with followers behind an in-process router, kill one shard mid-load \
             (fault site $(i,shard.kill)), promote its follower, and audit zero lost \
             acked writes fleet-wide.  With the default $(b,--faults) the armed \
             classes become just $(i,cluster) — the fleet's background traffic makes \
             the io/conn sites nondeterministic (docs/CLUSTER.md).")
  in
  let write_fault_log fault_log lines =
    match fault_log with
    | None -> ()
    | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n')
            lines)
  in
  let run seed requests distinct size classes rate jobs transport cluster hard_kill
      fsync_every slo no_hedge delay_ms expect_converged out fault_log fmt obs =
    obs_begin obs;
    let fleet = cluster > 0 in
    let r =
      Cluster.Chaos.run
        {
          Cluster.Chaos.seed;
          requests;
          distinct;
          size;
          (* A fleet's background traffic would consult the io/conn
             sites in timing-dependent order: with the default
             --faults it arms [cluster], or [latency] for the SLO
             audit (docs/CLUSTER.md). *)
          classes =
            (if fleet && classes = [ "io"; "worker"; "conn" ] then
               if slo then [ "latency" ] else [ "cluster" ]
             else classes);
          rate;
          transport;
          delay_ms = Option.value delay_ms ~default:(if fleet then 50 else 25);
          fsync_every;
          topology =
            (if fleet then Fleet { shards = cluster; hedge = not no_hedge; hard_kill; slo }
             else Daemon { jobs });
        }
    in
    let doc =
      Json.versioned ~command:"chaos"
        (obs_fields obs
           (match Cluster.Chaos.json_of_report r with
           | Json.Obj fields -> fields
           | other -> [ ("report", other) ]))
    in
    (match out with None -> () | Some path -> Obs.Export.write_file path doc);
    write_fault_log fault_log r.fault_log;
    (match fmt with
    | Json_v2 -> Json.print doc
    | Plain ->
      Cluster.Chaos.(
        Printf.printf
          "%d requests%s (%s transport): %d ok, %d errors, %d retried (%d attempts \
           total)\n\
           faults injected = %d (fingerprint %s), worker deaths = %d\n"
          r.requests
          (if fleet then Printf.sprintf " over %d shards" r.shards else "")
          r.transport r.ok r.errors r.retried r.attempts r.faults r.fingerprint
          r.worker_deaths;
        if fleet then
          Printf.printf "killed shard %d at request %d (%s), " r.killed_shard r.killed_at
            (if r.promoted then "follower promoted" else "no promotion");
        Printf.printf
          "acked = %d, lost writes = %d, disagreements = %d -> %s\n\
           p50 = %.2f ms  p95 = %.2f ms  p99 = %.2f ms\n\
           recovery p50 = %.2f ms  p95 = %.2f ms  max = %.2f ms\n"
          r.acked r.lost_writes r.disagreements
          (if r.converged then "converged" else "DIVERGED")
          r.p50_ms r.p95_ms r.p99_ms r.recovery_p50_ms r.recovery_p95_ms
          r.recovery_max_ms;
        if fleet then
          Printf.printf "hedges = %d (%d won), delays = %d\n" r.hedges r.hedge_wins
            r.delays;
        Option.iter
          (fun s ->
            Printf.printf
              "slo: baseline p99 = %.2f ms, hedged p99 = %.2f ms (bound %.2f ms, %s), \
               unhedged p99 = %.2f ms (%s)\n"
              s.baseline_p99_ms s.hedged_p99_ms s.bound_ms
              (if s.hedged_within_bound then "within" else "OVER")
              s.unhedged_p99_ms
              (if s.unhedged_degraded then "degraded as expected" else "NOT degraded"))
          r.slo));
    obs_end obs fmt;
    if expect_converged && not r.converged then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Boot the in-process daemon (or, with $(b,--cluster), a sharded fleet with \
          followers and a router) under a seeded fault plan, drive verified requests \
          through the retrying client, and audit convergence (docs/RESILIENCE.md)")
    Term.(
      const run $ seed_arg $ requests_arg $ distinct_arg $ size_arg $ faults_arg
      $ rate_arg $ jobs_arg $ client_transport_arg $ cluster_arg
      $ kill_arg $ chaos_fsync_arg $ slo_arg $ no_hedge_arg $ delay_ms_arg
      $ expect_converged_arg $ out_arg $ fault_log_arg $ format_arg $ obs_term)

(* ------------------------------- main ------------------------------ *)

let () =
  let doc = "time-optimal conflict-free mappings of uniform dependence algorithms" in
  let info = Cmd.info "shangfortes" ~version:"1.2.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            hnf_cmd; analyze_cmd; family_cmd; optimize_cmd; simulate_cmd; exec_cmd;
            parse_cmd;
            pareto_cmd; search_cmd; stats_cmd; fuzz_cmd; serve_cmd; compact_cmd;
            route_cmd; client_cmd; chaos_cmd;
          ]))
