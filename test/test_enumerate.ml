(* Tests for the Problem 2.1 enumeration and the Pareto analysis:
   [Search] on a 1-domain pool (the sequential search) and on a
   2-domain pool, checked against the paper's optima and against the
   oracle-screened [Reference]. *)

let mu4 = [| 4; 4; 4 |]

(* Run [f jobs pool] on a 1-domain and on a 2-domain pool. *)
let at_widths f = List.iter (fun jobs -> f jobs (Engine.Pool.create ~jobs ())) [ 1; 2 ]

let to_ints_l = List.map Intvec.to_ints

let test_all_optimal_matmul () =
  let alg = Matmul.algorithm ~mu:4 in
  let reference = Reference.all_optimal_schedules alg ~s:Matmul.paper_s in
  at_widths (fun jobs pool ->
      let all = Search.all_optimal_schedules ~pool alg ~s:Matmul.paper_s in
      let name = Printf.sprintf "%s, jobs=%d" in
      Alcotest.(check int) (name "six optimal schedules" jobs) 6 (List.length all);
      (* The paper's two named optima are among them. *)
      let as_lists = to_ints_l all in
      Alcotest.(check bool) (name "(1,4,1) present" jobs) true (List.mem [ 1; 4; 1 ] as_lists);
      Alcotest.(check bool) (name "(4,1,1) present" jobs) true (List.mem [ 4; 1; 1 ] as_lists);
      Alcotest.(check (list (list int))) (name "= oracle reference" jobs) reference as_lists;
      (* Every enumerated schedule really is valid and optimal. *)
      List.iter
        (fun pi ->
          Alcotest.(check int) "cost" 24 (Schedule.objective ~mu:mu4 pi);
          let t = Intmat.append_row Matmul.paper_s pi in
          Alcotest.(check bool) "conflict-free" true (Conflict.is_conflict_free ~mu:mu4 t))
        all)

let test_all_optimal_tc_unique () =
  (* Transitive closure has a unique optimum (mu+1, 1, 1). *)
  let mu = 4 in
  let alg = Transitive_closure.algorithm ~mu in
  Alcotest.(check (list (list int)))
    "oracle reference" [ [ mu + 1; 1; 1 ] ]
    (Reference.all_optimal_schedules alg ~s:Transitive_closure.paper_s);
  at_widths (fun jobs pool ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "unique, jobs=%d" jobs)
        [ [ mu + 1; 1; 1 ] ]
        (to_ints_l (Search.all_optimal_schedules ~pool alg ~s:Transitive_closure.paper_s)))

let test_pareto_matmul () =
  let alg = Matmul.algorithm ~mu:4 in
  let reference = Reference.pareto_front alg ~k:2 in
  at_widths (fun jobs pool ->
      let name = Printf.sprintf "%s, jobs=%d" in
      let front = Search.pareto_front ~pool alg ~k:2 in
      Alcotest.(check bool) (name "nonempty" jobs) true (front <> []);
      (* Strictly improving processors as time grows; first point is the
         joint optimum's time. *)
      let rec strictly_improving = function
        | (a : Search.pareto_point) :: (b :: _ as rest) ->
          a.total_time < b.total_time && a.processors > b.processors && strictly_improving rest
        | _ -> true
      in
      Alcotest.(check bool) (name "pareto shape" jobs) true (strictly_improving front);
      let first = List.hd front in
      Alcotest.(check int) (name "fastest = 25" jobs) 25 first.total_time;
      Alcotest.(check int) (name "9 PEs at the fastest point" jobs) 9 first.processors;
      Alcotest.(check bool) (name "= oracle reference" jobs) true
        (List.map Reference.point front = reference);
      (* Every point is a valid mapping. *)
      List.iter
        (fun (p : Search.pareto_point) ->
          let t = Intmat.append_row p.s p.pi in
          Alcotest.(check bool) "valid" true
            (Intmat.rank t = 2 && Conflict.is_conflict_free ~mu:mu4 t))
        front)

let registers r = Array.fold_left ( + ) 0 r.Tmap.buffers
let hops r = Array.fold_left ( + ) 0 r.Tmap.hops

(* The reference's (registers, hops) key of the buffer-minimal optimum. *)
let reference_best alg =
  match
    Reference.best_by_buffers alg ~s:Matmul.paper_s
      (Reference.all_optimal_schedules alg ~s:Matmul.paper_s)
  with
  | Some (_, key) -> key
  | None -> Alcotest.fail "reference found no routable schedule"

let test_best_by_buffers () =
  (* Among matmul's six time-optimal schedules, buffer totals differ;
     the selector must return one achieving the minimum (3 registers,
     e.g. the paper's (1,4,1) with buffers (0,3,0)). *)
  let alg = Matmul.algorithm ~mu:4 in
  (* Exhaustive floor: every optimal schedule needs >= this many. *)
  let floor, _ = reference_best alg in
  Alcotest.(check int) "three registers suffice" 3 floor;
  at_widths (fun jobs pool ->
      match Search.best_by_buffers ~pool alg ~s:Matmul.paper_s with
      | Some (pi, routing) ->
        Alcotest.(check int) (Printf.sprintf "cost optimal, jobs=%d" jobs) 24
          (Schedule.objective ~mu:mu4 pi);
        Alcotest.(check int)
          (Printf.sprintf "achieves the minimum, jobs=%d" jobs)
          floor (registers routing)
      | None -> Alcotest.fail "expected a schedule")

let test_large_mu_formulas () =
  (* The lattice oracle makes the paper's closed-form times checkable
     far beyond toy sizes: t°(mu) = mu(mu+2)+1 for matmul and
     mu(mu+3)+1 for transitive closure. *)
  List.iter
    (fun mu ->
      let alg = Matmul.algorithm ~mu in
      match Procedure51.optimize alg ~s:Matmul.paper_s with
      | Some r ->
        Alcotest.(check int)
          (Printf.sprintf "matmul mu=%d" mu)
          (Matmul.optimal_total_time ~mu) r.Procedure51.total_time
      | None -> Alcotest.fail "expected a schedule")
    [ 10; 14; 20 ];
  List.iter
    (fun mu ->
      let alg = Transitive_closure.algorithm ~mu in
      match Procedure51.optimize alg ~s:Transitive_closure.paper_s with
      | Some r ->
        Alcotest.(check int)
          (Printf.sprintf "tc mu=%d" mu)
          (Transitive_closure.optimal_total_time ~mu)
          r.Procedure51.total_time
      | None -> Alcotest.fail "expected a schedule")
    [ 10; 14 ]

let test_pareto_accept_reject_all () =
  (* An accept that rejects everything empties the front without
     crashing (the base level is still discovered pre-accept). *)
  let alg = Matmul.algorithm ~mu:3 in
  at_widths (fun jobs pool ->
      Alcotest.(check (list pass))
        (Printf.sprintf "rejecting accept yields empty front, jobs=%d" jobs)
        []
        (Search.pareto_front ~pool ~accept:(fun _ _ -> false) alg ~k:2))

let test_pareto_accept_shifts_front () =
  (* Rejecting exactly the unconstrained front's fastest point must
     move the front: the old optimum disappears and whatever remains
     stays valid, non-dominated, and no faster than before. *)
  let alg = Matmul.algorithm ~mu:3 in
  let full = Reference.pareto_front alg ~k:2 in
  Alcotest.(check bool) "baseline nonempty" true (full <> []);
  let fastest_time, _, fastest_pi, fastest_s = List.hd full in
  let accept pi s = not (Intvec.to_ints pi = fastest_pi && Intmat.to_ints s = fastest_s) in
  let reference = Reference.pareto_front ~accept alg ~k:2 in
  at_widths (fun jobs pool ->
      let name = Printf.sprintf "%s, jobs=%d" in
      let restricted = Search.pareto_front ~pool ~accept alg ~k:2 in
      Alcotest.(check bool) (name "old optimum excluded" jobs) true
        (List.for_all (fun (p : Search.pareto_point) -> accept p.pi p.s) restricted);
      Alcotest.(check bool) (name "still nonempty" jobs) true (restricted <> []);
      let head = List.hd restricted in
      Alcotest.(check bool) (name "no faster than the unconstrained optimum" jobs) true
        (head.total_time >= fastest_time);
      Alcotest.(check bool) (name "= oracle reference" jobs) true
        (List.map Reference.point restricted = reference);
      List.iter
        (fun (p : Search.pareto_point) ->
          let t = Intmat.append_row p.s p.pi in
          Alcotest.(check bool) "valid" true
            (Intmat.rank t = 2 && Conflict.is_conflict_free ~mu:[| 3; 3; 3 |] t))
        restricted)

let test_best_by_buffers_tiebreak () =
  (* With buffer totals tied, the selector must break ties on hop
     count: verify it attains the lexicographic (buffers, hops)
     minimum over the whole optimal set. *)
  let alg = Matmul.algorithm ~mu:4 in
  let best = reference_best alg in
  at_widths (fun jobs pool ->
      match Search.best_by_buffers ~pool alg ~s:Matmul.paper_s with
      | None -> Alcotest.fail "expected a schedule"
      | Some (_, routing) ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "lexicographic minimum, jobs=%d" jobs)
          best
          (registers routing, hops routing))

let test_no_schedule_empty () =
  let alg = Matmul.algorithm ~mu:4 in
  Alcotest.(check (list (list int))) "oracle reference" []
    (Reference.all_optimal_schedules ~max_objective:3 alg ~s:Matmul.paper_s);
  at_widths (fun jobs pool ->
      Alcotest.(check (list pass))
        (Printf.sprintf "empty under tiny bound, jobs=%d" jobs)
        []
        (Search.all_optimal_schedules ~pool ~max_objective:3 alg ~s:Matmul.paper_s))

let suite =
  [
    Alcotest.test_case "all optimal matmul schedules" `Quick test_all_optimal_matmul;
    Alcotest.test_case "tc optimum unique" `Quick test_all_optimal_tc_unique;
    Alcotest.test_case "pareto matmul" `Slow test_pareto_matmul;
    Alcotest.test_case "best by buffers" `Quick test_best_by_buffers;
    Alcotest.test_case "pareto accept rejects all" `Quick test_pareto_accept_reject_all;
    Alcotest.test_case "pareto accept shifts front" `Slow test_pareto_accept_shifts_front;
    Alcotest.test_case "best-by-buffers tie-break" `Quick test_best_by_buffers_tiebreak;
    Alcotest.test_case "large-mu formulas" `Slow test_large_mu_formulas;
    Alcotest.test_case "empty under bound" `Quick test_no_schedule_empty;
  ]
