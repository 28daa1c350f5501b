(* Tests for index sets, the algorithm model and the reference
   evaluator. *)

let test_index_set_basics () =
  let s = Index_set.make [| 2; 3 |] in
  Alcotest.(check int) "dim" 2 (Index_set.dim s);
  Alcotest.(check int) "cardinal" 12 (Index_set.cardinal s);
  Alcotest.(check int) "bound" 3 (Index_set.bound s 1);
  Alcotest.(check bool) "contains origin" true (Index_set.contains s [| 0; 0 |]);
  Alcotest.(check bool) "contains corner" true (Index_set.contains s [| 2; 3 |]);
  Alcotest.(check bool) "over" false (Index_set.contains s [| 3; 0 |]);
  Alcotest.(check bool) "under" false (Index_set.contains s [| 0; -1 |]);
  Alcotest.(check bool) "wrong arity" false (Index_set.contains s [| 0 |])

let test_index_set_validation () =
  Alcotest.(check bool) "zero bound rejected" true
    (try ignore (Index_set.make [| 0 |]); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try ignore (Index_set.make [||]); false with Invalid_argument _ -> true)

let test_iteration_order_and_count () =
  let s = Index_set.make [| 1; 2 |] in
  let pts = Index_set.to_list s in
  Alcotest.(check int) "count" 6 (List.length pts);
  Alcotest.(check (list (list int))) "lexicographic"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 0 ]; [ 1; 1 ]; [ 1; 2 ] ]
    (List.map Array.to_list pts)

let test_cube () =
  let s = Index_set.cube ~n:4 ~mu:6 in
  Alcotest.(check int) "cardinal 7^4" 2401 (Index_set.cardinal s)

let test_algorithm_accessors () =
  let a = Matmul.algorithm ~mu:3 in
  Alcotest.(check int) "dim" 3 (Algorithm.dim a);
  Alcotest.(check int) "deps" 3 (Algorithm.num_dependences a);
  Alcotest.(check (array int)) "d2" [| 0; 1; 0 |] (Algorithm.dependence a 1);
  Alcotest.(check (array int)) "pred" [| 1; 2; 2 |] (Algorithm.predecessor a [| 1; 2; 3 |] 2)

let test_algorithm_validation () =
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore
         (Algorithm.make ~name:"bad" ~index_set:(Index_set.cube ~n:3 ~mu:2)
            ~dependences:[ [ 1; 0 ] ]);
       false
     with Invalid_argument _ -> true)

let test_acyclic_witness () =
  let a = Transitive_closure.algorithm ~mu:3 in
  Alcotest.(check bool) "optimal pi valid" true
    (Algorithm.is_acyclic_witness a (Transitive_closure.optimal_pi ~mu:3));
  Alcotest.(check bool) "(1,1,1) invalid" false
    (Algorithm.is_acyclic_witness a (Intvec.of_ints [ 1; 1; 1 ]))

let test_evaluator_matmul () =
  let mu = 3 in
  let rng = Random.State.make [| 7 |] in
  let a = Matmul.random_matrix ~rng (mu + 1) and b = Matmul.random_matrix ~rng (mu + 1) in
  let alg = Matmul.algorithm ~mu in
  let value = Algorithm.evaluate_all alg (Matmul.semantics ~a ~b) in
  Alcotest.(check (array (array int))) "product"
    (Matmul.reference_product a b)
    (Matmul.product_of_values ~mu value)

let test_evaluator_outside_point () =
  let alg = Matmul.algorithm ~mu:2 in
  Alcotest.(check bool) "outside rejected" true
    (try
       ignore (Algorithm.evaluate alg Dataflow.semantics [| 5; 0; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_evaluator_cycle () =
  (* A zero dependence makes every point its own operand. *)
  let alg =
    Algorithm.make ~name:"self" ~index_set:(Index_set.cube ~n:2 ~mu:2)
      ~dependences:[ [ 1; 0 ]; [ 0; 0 ] ]
  in
  Alcotest.(check bool) "cycle rejected" true
    (try
       ignore (Algorithm.evaluate_all alg Dataflow.semantics : int array -> int);
       false
     with Failure _ -> true)

let test_evaluator_deterministic () =
  let alg = Transitive_closure.algorithm ~mu:3 in
  Alcotest.(check int) "fingerprint stable" (Dataflow.fingerprint_all alg) (Dataflow.fingerprint_all alg)

let test_fingerprint_distinguishes () =
  (* Different dependence structures must fingerprint differently. *)
  let a1 = Matmul.algorithm ~mu:3 in
  let a2 = Lu.algorithm ~mu:3 in
  Alcotest.(check bool) "matmul <> lu" true
    (Dataflow.fingerprint_all a1 <> Dataflow.fingerprint_all a2)

let prop_iter_matches_contains =
  QCheck.Test.make ~name:"every iterated point is contained" ~count:100 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 3 in
      let mu = Array.init n (fun _ -> 1 + Random.State.int rng 4) in
      let s = Index_set.make mu in
      Index_set.fold (fun ok j -> ok && Index_set.contains s j) true s
      && List.length (Index_set.to_list s) = Index_set.cardinal s)

let suite =
  [
    Alcotest.test_case "index set basics" `Quick test_index_set_basics;
    Alcotest.test_case "index set validation" `Quick test_index_set_validation;
    Alcotest.test_case "iteration order" `Quick test_iteration_order_and_count;
    Alcotest.test_case "cube" `Quick test_cube;
    Alcotest.test_case "algorithm accessors" `Quick test_algorithm_accessors;
    Alcotest.test_case "algorithm validation" `Quick test_algorithm_validation;
    Alcotest.test_case "acyclic witness" `Quick test_acyclic_witness;
    Alcotest.test_case "evaluator computes matmul" `Quick test_evaluator_matmul;
    Alcotest.test_case "evaluator outside point" `Quick test_evaluator_outside_point;
    Alcotest.test_case "evaluator rejects cycles" `Quick test_evaluator_cycle;
    Alcotest.test_case "evaluator deterministic" `Quick test_evaluator_deterministic;
    Alcotest.test_case "fingerprint distinguishes" `Quick test_fingerprint_distinguishes;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_iter_matches_contains ]
