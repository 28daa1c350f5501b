exception Bad_request of string

let badf fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

let builtin_algorithm name mu =
  match name with
  | "matmul" -> (Matmul.algorithm ~mu, Some Matmul.paper_s)
  | "tc" | "transitive-closure" ->
    (Transitive_closure.algorithm ~mu, Some Transitive_closure.paper_s)
  | "convolution" ->
    (Convolution.algorithm ~mu_ij:mu ~mu_pq:(max 1 (mu / 2)), Some Convolution.example_s)
  | "bitmm" | "bit-matmul" ->
    (Bit_matmul.algorithm ~mu_word:mu ~mu_bit:mu, Some Bit_matmul.example_s)
  | "lu" -> (Lu.algorithm ~mu, Some Lu.example_s)
  | other -> badf "unknown algorithm: %s (matmul|tc|convolution|bitmm|lu)" other

let json_of_vec v = Json.ints (Intvec.to_ints v)
let json_of_int_array a = Json.ints (Array.to_list a)

(* ------------------------------ analyze ----------------------------- *)

let analyze_wire ~store ~budget ~mu tmat =
  match store with
  | None -> (Protocol.wire_of_verdict (Analysis.check ~budget ~mu tmat), "off")
  | Some store -> (
    match Store.find store ~mu tmat with
    | Some e -> (Protocol.wire_of_entry e, "hit")
    | None ->
      let v = Analysis.check ~budget ~mu tmat in
      let wire = Protocol.wire_of_verdict v in
      (* Bounded verdicts depend on the budget that produced them;
         persisting one would replay it as ground truth forever. *)
      if v.Analysis.exactness = Analysis.Exact then
        (* A failed journal append must not fail the query: the
           verdict is already computed, only persistence is lost.
           The [error] status tells the client not to count this
           reply as an acknowledged write. *)
        match Store.add store ~mu tmat (Store.entry_of_verdict v) with
        | () -> (wire, "miss")
        | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) ->
          (wire, "error")
      else (wire, "bypass"))

let fields_of_analyze (wire, status) =
  [ ("verdict", Protocol.json_of_wire wire); ("store", Json.Str status) ]

let analyze ~store ~budget ~mu tmat =
  fields_of_analyze (analyze_wire ~store ~budget ~mu tmat)

(* ------------------------------ search ------------------------------ *)

let json_of_routing (rt : Tmap.routing) =
  Json.Obj
    [
      ("hops", json_of_int_array rt.Tmap.hops);
      ("buffers", json_of_int_array rt.Tmap.buffers);
    ]

let json_of_pareto_point (p : Search.pareto_point) =
  Json.Obj
    [
      ("total_time", Json.Int p.Search.total_time);
      ("processors", Json.Int p.Search.processors);
      ("pi", json_of_vec p.Search.pi);
      ("s", Protocol.json_of_mat p.Search.s);
    ]

let json_of_buffer_minimal (pi, (rt : Tmap.routing)) =
  Json.Obj
    [
      ("pi", json_of_vec pi);
      ("registers", Json.Int (Array.fold_left ( + ) 0 rt.Tmap.buffers));
      ("routing", json_of_routing rt);
    ]

let resolve_s s_opt default_s =
  match (s_opt, default_s) with
  | Some s, _ -> s
  | None, Some s -> s
  | None, None -> badf "no default space mapping for this algorithm; pass \"s\""

let schedules_fields ~s schedules best =
  [
    ("mode", Json.Str "schedules");
    ("s", Protocol.json_of_mat s);
    ("schedules", Json.Arr (List.map json_of_vec schedules));
    ("best_by_buffers", Json.option json_of_buffer_minimal best);
  ]

let search ~pool ~budget ~algorithm ~mu ~s:s_opt ~pareto ~array_dim =
  let alg, default_s = builtin_algorithm algorithm mu in
  let base =
    [ ("algorithm", Json.Str algorithm); ("mu", Json.Int mu) ]
  in
  let fields =
    if pareto then
      let front = Search.pareto_front ~pool ~budget alg ~k:(array_dim + 1) in
      [
        ("mode", Json.Str "pareto");
        ("array_dim", Json.Int array_dim);
        ("points", Json.Arr (List.map json_of_pareto_point front));
      ]
    else begin
      let s = resolve_s s_opt default_s in
      let schedules = Search.all_optimal_schedules ~pool ~budget alg ~s in
      schedules_fields ~s schedules (Search.buffer_minimal ~pool alg ~s schedules)
    end
  in
  base @ fields
  @ [ ("interrupted", Json.Bool (Engine.Budget.cancelled budget || Engine.Budget.pressed budget)) ]

(* ----------------------------- simulate ----------------------------- *)

let simulate_fields ~algorithm ~mu ~s ~pi (r : _ Exec.report) =
  [
    ("algorithm", Json.Str algorithm);
    ("mu", Json.Int mu);
    ("s", Protocol.json_of_mat s);
    ("pi", json_of_vec pi);
    ("makespan", Json.Int r.Exec.makespan);
    ("processors", Json.Int r.Exec.num_processors);
    ("computations", Json.Int r.Exec.computations);
    ("conflicts", Json.Int (List.length r.Exec.conflicts));
    ("causality_violations", Json.Int (List.length r.Exec.causality_violations));
    ("link_collisions", Json.Int (List.length r.Exec.collisions));
    ("buffers", json_of_int_array r.Exec.max_buffer_occupancy);
    ("dataflow_correct", Json.Bool (Exec.values_agree r));
    ("verification", Json.Str (Exec.verification_name r.Exec.verified));
    ("utilization", Json.Float r.Exec.utilization);
  ]

let simulate ~algorithm ~mu ~s:s_opt ~pi =
  let alg, default_s = builtin_algorithm algorithm mu in
  let s = resolve_s s_opt default_s in
  let tm =
    match Tmap.make ~s ~pi with
    | tm -> tm
    | exception Invalid_argument msg -> badf "bad mapping: %s" msg
  in
  let r =
    match Exec.run alg Dataflow.semantics tm with
    | r -> r
    | exception (Invalid_argument msg | Failure msg) -> badf "simulation rejected: %s" msg
  in
  simulate_fields ~algorithm ~mu ~s ~pi r

(* ------------------------------ replay ------------------------------ *)

let replay ~budget instance =
  let mu = instance.Check.Instance.mu and tmat = instance.Check.Instance.tmat in
  let wire = Protocol.wire_of_verdict (Analysis.check ~budget ~mu tmat) in
  let oracle_free =
    if Check.Instance.points instance <= Check.Oracle.max_points then
      Some (Check.Oracle.is_conflict_free instance)
    else None
  in
  [
    ("instance", Json.Str (Check.Instance.to_string instance));
    ("verdict", Protocol.json_of_wire wire);
    ("oracle_free", Json.option (fun b -> Json.Bool b) oracle_free);
    ( "agree",
      Json.option (fun free -> Json.Bool (free = wire.Protocol.conflict_free)) oracle_free );
  ]

(* ----------------------------- dispatch ----------------------------- *)

let execute ~pool ~store ~budget = function
  | Protocol.Analyze { mu; tmat; deadline_ms = _ } -> analyze ~store ~budget ~mu tmat
  | Protocol.Search { algorithm; mu; s; pareto; array_dim; deadline_ms = _ } ->
    search ~pool ~budget ~algorithm ~mu ~s ~pareto ~array_dim
  | Protocol.Simulate { algorithm; mu; s; pi } -> simulate ~algorithm ~mu ~s ~pi
  | Protocol.Replay { instance } -> replay ~budget instance
  | Protocol.Ship _ | Protocol.Ping | Protocol.Stats | Protocol.Drain
  | Protocol.Hello _ ->
    invalid_arg "Handlers.execute: inline op"
