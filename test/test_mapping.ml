(* Tests for Schedule (Equation 2.7) and Tmap (Definition 2.2,
   conditions 1, 2 and 4). *)

let iv = Intvec.of_ints
let im = Intmat.of_ints

let test_respects () =
  let d = im [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ] in
  Alcotest.(check bool) "positive" true (Schedule.respects (iv [ 1; 1; 1 ]) d);
  Alcotest.(check bool) "zero component" false (Schedule.respects (iv [ 1; 0; 1 ]) d);
  Alcotest.(check bool) "negative" false (Schedule.respects (iv [ 1; -1; 1 ]) d)

let test_time_of () =
  Alcotest.(check int) "dot" 14 (Schedule.time_of (iv [ 1; 2; 3 ]) [| 3; 1; 3 |])

let test_total_time_formula () =
  (* Equation 2.7 must equal the brute-force makespan (Equation 2.4). *)
  let mu = [| 3; 4; 2 |] in
  let iset = Index_set.make mu in
  List.iter
    (fun pi ->
      let pi = iv pi in
      Alcotest.(check int) "Eq 2.7 = Eq 2.4" (Schedule.makespan_oracle iset pi)
        (Schedule.total_time ~mu pi))
    [ [ 1; 1; 1 ]; [ 2; -1; 3 ]; [ -1; -1; -1 ]; [ 0; 5; 0 ]; [ 1; 4; 1 ] ]

let test_objective () =
  Alcotest.(check int) "objective" 24 (Schedule.objective ~mu:[| 4; 4; 4 |] (iv [ 1; 4; 1 ]));
  Alcotest.(check int) "abs values" 24 (Schedule.objective ~mu:[| 4; 4; 4 |] (iv [ -1; 4; -1 ]))

let test_tmap_construction () =
  let tm = Tmap.make ~s:(im [ [ 1; 1; -1 ] ]) ~pi:(iv [ 1; 4; 1 ]) in
  Alcotest.(check int) "n" 3 (Tmap.n tm);
  Alcotest.(check int) "k" 2 (Tmap.k tm);
  Alcotest.(check (list (list int))) "matrix" [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ]
    (Intmat.to_ints (Tmap.matrix tm));
  Alcotest.(check (array int)) "space" [| 2 |] (Tmap.space_of tm [| 1; 2; 1 |]);
  Alcotest.(check int) "time" 10 (Tmap.time_of tm [| 1; 2; 1 |]);
  Alcotest.(check bool) "full rank" true (Tmap.has_full_rank tm)

let test_tmap_of_rows () =
  let tm = Tmap.of_rows [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ] in
  Alcotest.(check (list (list int))) "matrix" [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ]
    (Intmat.to_ints (Tmap.matrix tm))

let test_tmap_rank_deficient () =
  let tm = Tmap.make ~s:(im [ [ 1; 1; 1 ] ]) ~pi:(iv [ 2; 2; 2 ]) in
  Alcotest.(check bool) "rank 1 < 2" false (Tmap.has_full_rank tm)

let test_processor_count_matmul () =
  (* Example 5.1, mu = 4: PEs are j1 + j2 - j3 in [-4, 8]: 13 of them. *)
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu:4) in
  let procs = Tmap.processors tm (Index_set.cube ~n:3 ~mu:4) in
  Alcotest.(check int) "13 PEs" 13 (List.length procs)

let test_nearest_neighbor_primitives () =
  (* The paper's 4-neighbor P for 2-D arrays, up to column order. *)
  let p = Tmap.nearest_neighbor_primitives 2 in
  Alcotest.(check int) "rows" 2 (Intmat.rows p);
  Alcotest.(check int) "cols" 4 (Intmat.cols p);
  let cols = List.init 4 (fun j -> Intvec.to_ints (Intmat.col p j)) in
  List.iter
    (fun c -> Alcotest.(check bool) "unit column" true (List.mem c cols))
    [ [ 1; 0 ]; [ -1; 0 ]; [ 0; 1 ]; [ 0; -1 ] ]

let test_routing_matmul () =
  (* Example 5.1: hops (1,1,1), buffers (0, mu-1, 0) with Pi = (1,mu,1);
     the paper counts 3 buffers on the A link at mu = 4. *)
  let mu = 4 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu) in
  let d = (Matmul.algorithm ~mu).Algorithm.dependences in
  match Tmap.find_routing tm ~d with
  | Some r ->
    Alcotest.(check (array int)) "hops" [| 1; 1; 1 |] r.Tmap.hops;
    Alcotest.(check (array int)) "buffers" [| 0; 3; 0 |] r.Tmap.buffers;
    Alcotest.(check bool) "PK = SD" true
      (Intmat.equal
         (Intmat.mul (Tmap.nearest_neighbor_primitives 1) r.Tmap.k_matrix)
         (Intmat.mul Matmul.paper_s d))
  | None -> Alcotest.fail "expected a routing"

let test_routing_lee_kedem_buffers () =
  (* [23]'s schedule needs Sigma (Pi' d_i - 1) = 4 buffers at mu = 4. *)
  let mu = 4 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.lee_kedem_pi ~mu) in
  let d = (Matmul.algorithm ~mu).Algorithm.dependences in
  match Tmap.find_routing tm ~d with
  | Some r ->
    Alcotest.(check int) "4 buffers total" 4 (Array.fold_left ( + ) 0 r.Tmap.buffers)
  | None -> Alcotest.fail "expected a routing"

let test_routing_infeasible () =
  (* A dependence that must travel 2 hops in 1 time step cannot be
     routed. *)
  let tm = Tmap.make ~s:(im [ [ 2; 0 ] ]) ~pi:(iv [ 1; 1 ]) in
  let d = im [ [ 1; 0 ]; [ 0; 1 ] ] in
  Alcotest.(check bool) "no routing" true (Tmap.find_routing tm ~d = None)

let test_routing_with_negative_displacement () =
  let tm = Tmap.make ~s:(im [ [ -1; 0 ] ]) ~pi:(iv [ 1; 1 ]) in
  let d = im [ [ 1; 0 ]; [ 0; 1 ] ] in
  match Tmap.find_routing tm ~d with
  | Some r -> Alcotest.(check (array int)) "hops" [| 1; 0 |] r.Tmap.hops
  | None -> Alcotest.fail "expected a routing"

let prop_total_time_is_makespan =
  QCheck.Test.make ~name:"Equation 2.7 equals brute-force makespan" ~count:150 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 3 in
      let mu = Array.init n (fun _ -> 1 + Random.State.int rng 4) in
      let pi = Array.init n (fun _ -> Zint.of_int (Random.State.int rng 9 - 4)) in
      Schedule.total_time ~mu pi = Schedule.makespan_oracle (Index_set.make mu) pi)

let prop_respects_is_pi_d_positive =
  QCheck.Test.make ~name:"respects iff every entry of Pi D is positive" ~count:500 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 4 and m = 1 + Random.State.int rng 4 in
      let entry () = Zint.of_int (Random.State.int rng 7 - 2) in
      let pi = Array.init n (fun _ -> entry ()) and d = Intmat.make n m (fun _ _ -> entry ()) in
      Schedule.respects pi d = Array.for_all (fun x -> Zint.sign x > 0) (Intmat.vec_mul pi d))

(* The PE set against a walk of J: S J point by point, then sorted and
   deduplicated.  Entries up to 1000 make the coordinates' range far
   larger than the set, so a count sized by the range would show. *)
let prop_processors_match_walk =
  QCheck.Test.make ~name:"processors equal the walk over J" ~count:300 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 4 and rows = 1 + Random.State.int rng 3 in
      let entry () =
        match Random.State.int rng 3 with
        | 0 -> 0
        | 1 -> Random.State.int rng 3 - 1
        | _ -> Random.State.int rng 2001 - 1000
      in
      let s = Intmat.make rows n (fun _ _ -> Zint.of_int (entry ())) in
      let tm = Tmap.make ~s ~pi:(Intvec.zero n) in
      let iset = Index_set.make (Array.init n (fun _ -> 1 + Random.State.int rng 6)) in
      let walk = ref [] in
      Index_set.iter (fun j -> walk := Tmap.space_of tm j :: !walk) iset;
      Tmap.processors tm iset = List.sort_uniq compare !walk)

(* The closed-form nearest-neighbour routing (no [p]) against the ILP
   on the same primitives passed explicitly: random S of 1 to 3 rows,
   Pi and D with small entries, so some dependences fit their slack and
   some do not.  Both answer None, or the same K, hops and buffers. *)
let prop_routing_closed_form_is_ilp =
  QCheck.Test.make ~name:"nearest-neighbour routing = ILP" ~count:300 QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 2 + Random.State.int rng 3 and rows = 1 + Random.State.int rng 3 in
      let m = 1 + Random.State.int rng 4 in
      let entry lo hi = Zint.of_int (lo + Random.State.int rng (hi - lo + 1)) in
      let s = Intmat.make rows n (fun _ _ -> entry (-2) 2) in
      let tm = Tmap.make ~s ~pi:(Array.init n (fun _ -> entry (-1) 4)) in
      let d = Intmat.make n m (fun _ _ -> entry (-1) 2) in
      let ilp = Tmap.find_routing ~p:(Tmap.nearest_neighbor_primitives rows) tm ~d in
      match (Tmap.find_routing tm ~d, ilp) with
      | None, None -> true
      | Some a, Some b ->
        Intmat.equal a.Tmap.k_matrix b.Tmap.k_matrix
        && a.Tmap.hops = b.Tmap.hops
        && a.Tmap.buffers = b.Tmap.buffers
        && a.Tmap.hops = Tmap.nearest_neighbor_hops ~s ~d
      | Some _, None | None, Some _ -> false)

let suite =
  [
    Alcotest.test_case "Pi D > 0" `Quick test_respects;
    Alcotest.test_case "time of point" `Quick test_time_of;
    Alcotest.test_case "total time formula" `Quick test_total_time_formula;
    Alcotest.test_case "objective" `Quick test_objective;
    Alcotest.test_case "tmap construction" `Quick test_tmap_construction;
    Alcotest.test_case "tmap of_rows" `Quick test_tmap_of_rows;
    Alcotest.test_case "tmap rank deficient" `Quick test_tmap_rank_deficient;
    Alcotest.test_case "matmul processor count" `Quick test_processor_count_matmul;
    Alcotest.test_case "nearest neighbor primitives" `Quick test_nearest_neighbor_primitives;
    Alcotest.test_case "matmul routing" `Quick test_routing_matmul;
    Alcotest.test_case "lee-kedem buffers" `Quick test_routing_lee_kedem_buffers;
    Alcotest.test_case "routing infeasible" `Quick test_routing_infeasible;
    Alcotest.test_case "routing negative displacement" `Quick test_routing_with_negative_displacement;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_total_time_is_makespan;
        prop_respects_is_pi_d_positive;
        prop_processors_match_walk;
        prop_routing_closed_form_is_ilp;
      ]
