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

let analyze_wire ~store ~mu tmat =
  let wire = Protocol.wire_of_verdict (Analysis.check ~mu tmat) in
  match store with
  | None -> (wire, "off")
  | Some store -> (
    (* A failed journal append must not fail the query: the verdict
       is already computed, only persistence is lost.  The [error]
       status tells the client not to count this reply as an
       acknowledged write. *)
    match Store.add store ~mu tmat wire with
    | () -> (wire, "miss")
    | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) -> (wire, "error"))

let fields_of_analyze (wire, status) =
  [ ("verdict", Protocol.json_of_wire wire); ("store", Json.Str status) ]

let analyze ~store ~mu tmat = fields_of_analyze (analyze_wire ~store ~mu tmat)

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

(* The largest search request: a scan that finds nothing walks every Pi
   up to Procedure 5.1's default objective bound. *)
let max_search_candidates = 1 lsl 23

(* The number of Pi with Sigma |pi_i| * mu_i up to that bound, or
   [max_search_candidates + 1] for any larger count: a DP over the
   components, memoized on the objective left, with the last component
   solved as in [Procedure51.walk].  Each magnitude a level tries adds
   at least one Pi, so no level tries more than the cap.  A single
   mu_i at the cap gives more Pi than that along its own axis, since
   the bound is at least mu_i (mu_i + 1); it is answered before the
   bound, whose products could overflow, is formed. *)
let search_candidates mu =
  let cap = max_search_candidates + 1 in
  let n = Array.length mu in
  let memo = Hashtbl.create 64 in
  let rec count i left =
    if i = n - 1 then min cap ((2 * (left / mu.(i))) + 1)
    else
      match Hashtbl.find_opt memo (i, left) with
      | Some c -> c
      | None ->
        let rec go mag acc =
          if acc >= cap || mag * mu.(i) > left then acc
          else
            let signs = if mag = 0 then 1 else 2 in
            go (mag + 1) (min cap (acc + (signs * count (i + 1) (left - (mag * mu.(i))))))
        in
        let c = go 0 0 in
        Hashtbl.add memo (i, left) c;
        c
  in
  if n = 0 then 1
  else if Array.exists (fun m -> m >= cap) mu then cap
  else count 0 (Procedure51.default_max_objective mu)

let search ~pool ~algorithm ~mu ~s:s_opt ~pareto ~array_dim =
  let alg, default_s = builtin_algorithm algorithm mu in
  if search_candidates (Index_set.bounds alg.Algorithm.index_set) > max_search_candidates then
    badf "search: more than %d schedule candidates up to the default objective bound"
      max_search_candidates;
  let base =
    [ ("algorithm", Json.Str algorithm); ("mu", Json.Int mu) ]
  in
  let fields =
    if pareto then
      let front = Search.pareto_front ~pool alg ~k:(array_dim + 1) in
      [
        ("mode", Json.Str "pareto");
        ("array_dim", Json.Int array_dim);
        ("points", Json.Arr (List.map json_of_pareto_point front));
      ]
    else begin
      let s = resolve_s s_opt default_s in
      let schedules = Search.all_optimal_schedules ~pool alg ~s in
      schedules_fields ~s schedules (Search.buffer_minimal ~pool alg ~s schedules)
    end
  in
  base @ fields

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

(* The largest simulate request: its cost is linear in |J| and in the
   spans of [Pi j] and [S j] over J, the ranges of its counting sorts. *)
let max_simulate_points = 1 lsl 18
let max_simulate_span = 1 lsl 20

let simulate ~algorithm ~mu ~s:s_opt ~pi =
  let alg, default_s = builtin_algorithm algorithm mu in
  let s = resolve_s s_opt default_s in
  let tm =
    match Tmap.make ~s ~pi with
    | tm -> tm
    | exception Invalid_argument msg -> badf "bad mapping: %s" msg
  in
  let bounds = Intvec.of_int_array (Index_set.bounds alg.Algorithm.index_set) in
  let over limit x = Zint.compare x (Zint.of_int limit) > 0 in
  let points = Array.fold_left (fun acc m -> Zint.mul acc (Zint.add m Zint.one)) Zint.one bounds in
  if over max_simulate_points points then
    badf "simulate: more than %d index points" max_simulate_points;
  (* A [pi] of the wrong length is left for [Exec.run] to reject. *)
  let span w = Intvec.dot (Array.map Zint.abs w) bounds in
  if Intvec.dim pi = Intvec.dim bounds
     && List.exists (fun w -> over max_simulate_span (span w)) (pi :: List.init (Intmat.rows s) (Intmat.row s))
  then badf "simulate: Pi or a row of S spans more than %d over the index set" max_simulate_span;
  let r =
    match Exec.run alg Dataflow.semantics tm with
    | r -> r
    | exception (Invalid_argument msg | Failure msg) -> badf "simulation rejected: %s" msg
  in
  simulate_fields ~algorithm ~mu ~s ~pi r

(* ------------------------------ replay ------------------------------ *)

let replay instance =
  let mu = instance.Check.Instance.mu and tmat = instance.Check.Instance.tmat in
  let wire = Protocol.wire_of_verdict (Analysis.check ~mu tmat) in
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

let execute ~pool ~store = function
  | Protocol.Analyze { mu; tmat; deadline_ms = _ } -> analyze ~store ~mu tmat
  | Protocol.Search { algorithm; mu; s; pareto; array_dim; deadline_ms = _ } ->
    search ~pool ~algorithm ~mu ~s ~pareto ~array_dim
  | Protocol.Simulate { algorithm; mu; s; pi } -> simulate ~algorithm ~mu ~s ~pi
  | Protocol.Replay { instance } -> replay instance
  | Protocol.Ship _ | Protocol.Ping | Protocol.Stats | Protocol.Drain
  | Protocol.Hello _ ->
    invalid_arg "Handlers.execute: inline op"
