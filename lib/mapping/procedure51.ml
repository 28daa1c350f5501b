type result = {
  pi : Intvec.t;
  total_time : int;
  candidates_tried : int;
  routing : Tmap.routing option;
}

(* Enumerate all pi with Sigma |pi_i| * mu_i = cost.  Components are
   chosen left to right; each nonzero magnitude branches on sign. *)
let candidates_at_cost ~mu cost =
  let n = Array.length mu in
  let acc = ref [] in
  let pi = Array.make n 0 in
  let rec go i remaining =
    if i = n then begin
      if remaining = 0 then acc := Intvec.of_int_array pi :: !acc
    end
    else begin
      let w = mu.(i) in
      let max_mag = remaining / w in
      for mag = 0 to max_mag do
        if mag = 0 then begin
          pi.(i) <- 0;
          go (i + 1) remaining
        end
        else begin
          pi.(i) <- mag;
          go (i + 1) (remaining - (mag * w));
          pi.(i) <- -mag;
          go (i + 1) (remaining - (mag * w));
          pi.(i) <- 0
        end
      done
    end
  in
  go 0 cost;
  List.rev !acc

let default_max_objective mu =
  Array.fold_left (fun acc m -> acc + (m * (m + 1))) 0 mu

let first_level ?(from = 1) ?max_objective ~mu level =
  let max_objective =
    match max_objective with Some m -> m | None -> default_max_objective mu
  in
  let rec walk cost =
    if cost > max_objective then None
    else
      match level cost with
      | Some _ as hit -> hit
      | None -> walk (cost + 1)
  in
  walk from

let minimal_schedule ?max_objective (alg : Algorithm.t) =
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let d = alg.Algorithm.dependences in
  first_level ?max_objective ~mu (fun cost ->
      List.find_opt (fun pi -> Schedule.respects pi d) (candidates_at_cost ~mu cost))

let optimize ?valid ?p ?(require_routing = false) ?max_objective
    (alg : Algorithm.t) ~s =
  Obs.Trace.with_span "p51.optimize" @@ fun () ->
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let d = alg.Algorithm.dependences in
  let k = Intmat.rows s + 1 in
  let valid =
    match valid with
    | Some f -> f
    | None ->
      fun t ->
        Obs.Trace.with_span "p51.screen" @@ fun () ->
        Intmat.rank t = k && Family.decide ~mu t
  in
  let tried = ref 0 in
  let candidates_metric = Obs.Metrics.counter "p51.candidates" in
  let attempt pi =
    incr tried;
    Obs.Metrics.incr candidates_metric;
    if not (Schedule.respects pi d) then None
    else begin
      let tm = Tmap.make ~s ~pi in
      let t = Tmap.matrix tm in
      if not (valid t) then None
      else if not require_routing then Some (pi, None)
      else
        match Tmap.find_routing ?p tm ~d with
        | Some routing -> Some (pi, Some routing)
        | None -> None
    end
  in
  first_level ?max_objective ~mu (fun cost ->
      match List.filter_map attempt (candidates_at_cost ~mu cost) with
      | (pi, routing) :: _ ->
        Some { pi; total_time = cost + 1; candidates_tried = !tried; routing }
      | [] -> None)
