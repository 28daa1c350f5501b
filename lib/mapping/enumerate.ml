let all_optimal_schedules ?max_objective (alg : Algorithm.t) ~s =
  match Procedure51.optimize ?max_objective alg ~s with
  | None -> []
  | Some best ->
    let mu = Index_set.bounds alg.Algorithm.index_set in
    let d = alg.Algorithm.dependences in
    let k = Intmat.rows s + 1 in
    let cost = best.Procedure51.total_time - 1 in
    List.filter
      (fun pi ->
        Schedule.respects pi d
        &&
        let t = Intmat.append_row s pi in
        Intmat.rank t = k && Family.decide ~mu t)
      (Procedure51.candidates_at_cost ~mu cost)

let best_by_buffers ?max_objective (alg : Algorithm.t) ~s =
  let d = alg.Algorithm.dependences in
  let tm_of pi = Tmap.make ~s ~pi in
  let scored =
    List.filter_map
      (fun pi ->
        match Tmap.find_routing (tm_of pi) ~d with
        | Some routing ->
          let buffers = Array.fold_left ( + ) 0 routing.Tmap.buffers in
          let hops = Array.fold_left ( + ) 0 routing.Tmap.hops in
          Some ((buffers, hops), pi, routing)
        | None -> None)
      (all_optimal_schedules ?max_objective alg ~s)
  in
  match List.sort (fun (a, _, _) (b, _, _) -> compare a b) scored with
  | [] -> None
  | (_, pi, routing) :: _ -> Some (pi, routing)

type pareto_point = {
  total_time : int;
  processors : int;
  pi : Intvec.t;
  s : Intmat.t;
}

let pareto_front ?entry_bound ?(time_slack = 8) ?(accept = fun _ _ -> true)
    (alg : Algorithm.t) ~k =
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let d = alg.Algorithm.dependences in
  match Space_opt.optimize_joint ?entry_bound alg ~k with
  | None -> []
  | Some (pi0, _) ->
    let base_cost = Schedule.objective ~mu pi0 in
    let candidates = ref [] in
    for cost = base_cost to base_cost + time_slack do
      List.iter
        (fun pi ->
          if Schedule.respects pi d then
            match Space_opt.optimize ?entry_bound ~objective:Space_opt.Processors alg ~pi ~k with
            | Some r when accept pi r.Space_opt.s ->
              candidates :=
                {
                  total_time = cost + 1;
                  processors = r.Space_opt.processors;
                  pi;
                  s = r.Space_opt.s;
                }
                :: !candidates
            | Some _ | None -> ())
        (Procedure51.candidates_at_cost ~mu cost)
    done;
    (* Keep non-dominated points: smaller time and smaller array. *)
    let sorted =
      List.sort
        (fun a b -> compare (a.total_time, a.processors) (b.total_time, b.processors))
        !candidates
    in
    let rec sweep best_procs = function
      | [] -> []
      | p :: rest ->
        if p.processors < best_procs then p :: sweep p.processors rest
        else sweep best_procs rest
    in
    sweep max_int sorted
