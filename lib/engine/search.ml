type pareto_point = {
  total_time : int;
  processors : int;
  pi : Intvec.t;
  s : Intmat.t;
}

let get_pool = function
  | Some p -> p
  | None -> Engine.Pool.create ()

(* Conditions 3 and 4 of Definition 2.2 on one candidate.  Every
   candidate of a scan is a distinct matrix, so nothing is memoized. *)
let valid ~mu t = Obs.Trace.with_span "search.screen" @@ fun () -> Family.valid ~mu t

(* One cost level of Procedure 5.1 under its own span: the walk keeps a
   copy of each candidate with [Pi D > 0], and [f] runs on the pool
   over those, each paired with its candidate in enumeration order. *)
let level ~pool ~mu ~d f cost =
  Obs.Trace.with_span ~args:[ ("cost", string_of_int cost) ] "search.level" @@ fun () ->
  let cands = ref [] in
  Procedure51.walk ~mu cost (fun pi ->
      if Schedule.respects pi d then cands := Array.copy pi :: !cands);
  let cands = List.rev !cands in
  List.combine cands (Engine.Pool.map pool f cands)

let all_optimal_schedules ?pool ?max_objective (alg : Algorithm.t) ~s =
  let pool = get_pool pool in
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let d = alg.Algorithm.dependences in
  Obs.Trace.with_span "search.schedule-scan" @@ fun () ->
  Procedure51.first_level ?max_objective ~mu (fun cost ->
      level ~pool ~mu ~d (fun pi -> valid ~mu (Intmat.append_row s pi)) cost
      |> List.filter_map (fun (pi, ok) -> if ok then Some pi else None)
      |> function [] -> None | winners -> Some winners)
  |> Option.value ~default:[]

let buffer_minimal ?pool (alg : Algorithm.t) ~s schedules =
  let pool = get_pool pool in
  let d = alg.Algorithm.dependences in
  let total = Array.fold_left ( + ) 0 in
  let scored =
    Engine.Pool.map pool
      (fun pi ->
        Tmap.find_routing (Tmap.make ~s ~pi) ~d
        |> Option.map (fun rt -> ((total rt.Tmap.buffers, total rt.Tmap.hops), pi, rt)))
      schedules
    |> List.filter_map Fun.id
  in
  match List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) scored with
  | [] -> None
  | (_, pi, routing) :: _ -> Some (pi, routing)

let best_by_buffers ?pool ?max_objective alg ~s =
  let pool = get_pool pool in
  buffer_minimal ~pool alg ~s (all_optimal_schedules ~pool ?max_objective alg ~s)

let pareto_front ?pool ?entry_bound ?(time_slack = 8)
    ?(accept = fun _ _ -> true) (alg : Algorithm.t) ~k =
  let pool = get_pool pool in
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let d = alg.Algorithm.dependences in
  Obs.Trace.with_span "search.space-scan" @@ fun () ->
  (* One pool task per schedule candidate: the whole space-family scan
     for that Pi, with the search's screen plugged into Space_opt. *)
  let level =
    level ~pool ~mu ~d (fun pi ->
        Space_opt.optimize ?entry_bound ~objective:Space_opt.Processors
          ~valid:(valid ~mu) alg ~pi ~k)
  in
  (* The joint optimum's level: the first cost where any candidate
     admits a conflict-free space mapping at all.  [accept] is applied
     afterwards, so a rejecting accept shifts the front without moving
     its origin. *)
  let base =
    Procedure51.first_level ~mu (fun cost ->
        let res = level cost in
        if List.exists (fun (_, r) -> Option.is_some r) res then Some (cost, res) else None)
  in
  match base with
  | None -> []
  | Some (base, res0) ->
    let levels =
      (base, res0) :: List.init time_slack (fun i -> (base + 1 + i, level (base + 1 + i)))
    in
    let points =
      List.concat_map
        (fun (cost, res) ->
          List.filter_map
            (function
              | pi, Some r when accept pi r.Space_opt.s ->
                Some
                  {
                    total_time = cost + 1;
                    processors = r.Space_opt.processors;
                    pi;
                    s = r.Space_opt.s;
                  }
              | _, (Some _ | None) -> None)
            res)
        levels
    in
    (* Keep non-dominated points: smaller time and smaller array.
       Sorting the reversed list stably makes the last-enumerated
       candidate represent each (time, processors) pair. *)
    let sorted =
      List.stable_sort
        (fun a b -> compare (a.total_time, a.processors) (b.total_time, b.processors))
        (List.rev points)
    in
    let rec sweep best_procs = function
      | [] -> []
      | p :: rest ->
        if p.processors < best_procs then p :: sweep p.processors rest
        else sweep best_procs rest
    in
    sweep max_int sorted
