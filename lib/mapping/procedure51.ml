type result = {
  pi : Intvec.t;
  total_time : int;
  candidates_tried : int;
  routing : Tmap.routing option;
}

(* Every pi with Sigma |pi_i| * mu_i = cost, on one buffer.  Components
   are chosen left to right, each nonzero magnitude branching on sign,
   + first.  The last component is solved, not searched: the remainder
   must be a multiple of its weight. *)
let walk ~mu cost visit =
  let n = Array.length mu in
  let pi = Array.make n Zint.zero in
  let rec go i remaining =
    let w = mu.(i) in
    if i = n - 1 then begin
      if remaining >= 0 && remaining mod w = 0 then begin
        let mag = remaining / w in
        if mag = 0 then visit pi
        else begin
          pi.(i) <- Zint.of_int mag;
          visit pi;
          pi.(i) <- Zint.of_int (-mag);
          visit pi;
          pi.(i) <- Zint.zero
        end
      end
    end
    else begin
      go (i + 1) remaining;
      for mag = 1 to remaining / w do
        pi.(i) <- Zint.of_int mag;
        go (i + 1) (remaining - (mag * w));
        pi.(i) <- Zint.of_int (-mag);
        go (i + 1) (remaining - (mag * w))
      done;
      pi.(i) <- Zint.zero
    end
  in
  if n = 0 then (if cost = 0 then visit pi) else go 0 cost

let candidates_at_cost ~mu cost =
  let acc = ref [] in
  walk ~mu cost (fun pi -> acc := Array.copy pi :: !acc);
  List.rev !acc

let default_max_objective mu =
  Array.fold_left (fun acc m -> acc + (m * (m + 1))) 0 mu

let first_level ?(from = 1) ?max_objective ~mu level =
  let max_objective =
    match max_objective with Some m -> m | None -> default_max_objective mu
  in
  let rec scan cost =
    if cost > max_objective then None
    else
      match level cost with
      | Some _ as hit -> hit
      | None -> scan (cost + 1)
  in
  scan from

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
  let valid =
    match valid with
    | Some f -> f
    | None -> fun t -> Obs.Trace.with_span "p51.screen" @@ fun () -> Family.valid ~mu t
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
