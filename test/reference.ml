(* An independent reference for the mapping search of [Search].

   It visits Procedure 5.1's cost levels in the same order, but screens
   each candidate T = [S; Pi] with a rank check and the brute-force
   point-collision oracle of [Check.Oracle] instead of the
   Family/Analysis cascade, runs without a pool and walks its levels
   with loops of its own.  The Pareto reference runs the same screen
   through [Space_opt.optimize ~valid].  Answers are returned as plain
   ints so tests can compare them structurally. *)

let oracle_valid ~mu ~k t =
  Intmat.rank t = k && Check.Oracle.is_conflict_free (Check.Instance.make ~mu t)

(* Every dependence-respecting Pi of total cost [cost] that [keep]
   maps to [Some], in candidate-enumeration order. *)
let at_cost (alg : Algorithm.t) cost keep =
  let mu = Index_set.bounds alg.Algorithm.index_set in
  List.filter_map
    (fun pi -> if Schedule.respects pi alg.Algorithm.dependences then keep pi else None)
    (Procedure51.candidates_at_cost ~mu cost)

let all_optimal_schedules ?max_objective (alg : Algorithm.t) ~s =
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let k = Intmat.rows s + 1 in
  let max_objective =
    Option.value max_objective ~default:(Procedure51.default_max_objective mu)
  in
  let winners = ref [] and cost = ref 1 in
  while !winners = [] && !cost <= max_objective do
    winners :=
      at_cost alg !cost (fun pi ->
          if oracle_valid ~mu ~k (Intmat.append_row s pi) then Some (Intvec.to_ints pi)
          else None);
    incr cost
  done;
  !winners

(* The schedule of [schedules] with the lexicographically smallest
   (registers, hops) routing, the first such in list order, with that
   key. *)
let best_by_buffers (alg : Algorithm.t) ~s schedules =
  let total = Array.fold_left ( + ) 0 in
  let best = ref None in
  List.iter
    (fun pi ->
      match Tmap.find_routing (Tmap.make ~s ~pi:(Intvec.of_ints pi)) ~d:alg.Algorithm.dependences with
      | None -> ()
      | Some r ->
        let key = (total r.Tmap.buffers, total r.Tmap.hops) in
        (match !best with
        | Some (k, _) when k <= key -> ()
        | Some _ | None -> best := Some (key, pi)))
    schedules;
  Option.map (fun (key, pi) -> (pi, key)) !best

(* A [Search.pareto_point] in the shape [pareto_front] returns. *)
let point (p : Search.pareto_point) =
  (p.total_time, p.processors, Intvec.to_ints p.pi, Intmat.to_ints p.s)

(* [(total_time, processors, pi, s)] of every non-dominated point,
   fastest first; among points with equal time and processors the
   last-enumerated candidate represents them. *)
let pareto_front ?(time_slack = 8) ?(accept = fun _ _ -> true) (alg : Algorithm.t) ~k =
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let valid = oracle_valid ~mu ~k in
  let points cost =
    at_cost alg cost (fun pi ->
        Option.map
          (fun r -> (pi, r))
          (Space_opt.optimize ~objective:Space_opt.Processors ~valid alg ~pi ~k))
  in
  let max_objective = Procedure51.default_max_objective mu in
  let base = ref 1 in
  while !base <= max_objective && points !base = [] do
    incr base
  done;
  if !base > max_objective then []
  else begin
    let all = ref [] in
    for cost = !base to !base + time_slack do
      List.iter
        (fun (pi, r) ->
          if accept pi r.Space_opt.s then
            all :=
              (cost + 1, r.Space_opt.processors, Intvec.to_ints pi, Intmat.to_ints r.Space_opt.s)
              :: !all)
        (points cost)
    done;
    (* [!all] is newest first, so a stable sort keeps the
       last-enumerated point of each (time, processors) pair first. *)
    let sorted = List.stable_sort (fun (t, p, _, _) (t', p', _, _) -> compare (t, p) (t', p')) !all in
    let front = ref [] and fewest = ref max_int in
    List.iter
      (fun ((_, procs, _, _) as p) ->
        if procs < !fewest then begin
          front := p :: !front;
          fewest := procs
        end)
      sorted;
    List.rev !front
  end
