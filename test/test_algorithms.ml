(* Tests for the concrete algorithm instances. *)

let test_matmul_structure () =
  let a = Matmul.algorithm ~mu:4 in
  Alcotest.(check int) "n = 3" 3 (Algorithm.dim a);
  Alcotest.(check bool) "D = I" true (Intmat.equal a.Algorithm.dependences (Intmat.identity 3));
  Alcotest.(check int) "|J| = 125" 125 (Index_set.cardinal a.Algorithm.index_set)

let test_matmul_times () =
  Alcotest.(check int) "optimal mu=4" 25 (Matmul.optimal_total_time ~mu:4);
  Alcotest.(check int) "lee-kedem mu=4" 29 (Matmul.lee_kedem_total_time ~mu:4);
  (* At mu = 3 the two coincide: the paper notes Pi' is optimal there. *)
  Alcotest.(check int) "lee-kedem mu=3" 19 (Matmul.lee_kedem_total_time ~mu:3);
  Alcotest.(check int) "optimal mu=3" 16 (Matmul.optimal_total_time ~mu:3)

(* Pi° = (1, mu, 1) conflicts at odd mu; optimal_pi switches to
   (1, 2, mu-1) there.  Both branches, mu = 2..40. *)
let test_matmul_optimal_pi_every_mu () =
  for mu = 2 to 40 do
    let pi = Matmul.optimal_pi ~mu in
    let name what = Printf.sprintf "mu=%d %s" mu what in
    Alcotest.(check bool) (name "conflict-free") true
      (Conflict.is_conflict_free ~mu:[| mu; mu; mu |] (Intmat.append_row Matmul.paper_s pi));
    Alcotest.(check int) (name "total time") (Matmul.optimal_total_time ~mu)
      (Schedule.total_time ~mu:[| mu; mu; mu |] pi)
  done

let test_tc_structure () =
  (* Equation 3.6. *)
  let a = Transitive_closure.algorithm ~mu:4 in
  Alcotest.(check (list (list int))) "D"
    [ [ 0; 0; 1; 1; 1 ]; [ 0; 1; -1; -1; 0 ]; [ 1; 0; -1; 0; -1 ] ]
    (Intmat.to_ints a.Algorithm.dependences)

let test_tc_times () =
  Alcotest.(check int) "optimal mu=4" 29 (Transitive_closure.optimal_total_time ~mu:4);
  Alcotest.(check int) "[22] heuristic mu=4" 45 (Transitive_closure.prior_total_time ~mu:4)

let test_warshall () =
  let f = false and t = true in
  let a = [| [| f; t; f |]; [| f; f; t |]; [| f; f; f |] |] in
  let c = Transitive_closure.warshall a in
  Alcotest.(check bool) "0 reaches 2" true c.(0).(2);
  Alcotest.(check bool) "2 reaches nothing" false (c.(2).(0) || c.(2).(1) || c.(2).(2));
  (* idempotence *)
  Alcotest.(check bool) "closure of closure" true (Transitive_closure.warshall c = c)

let test_convolution_reference () =
  let ker = [| [| 1; 0 |]; [| 0; -1 |] |] in
  let img = [| [| 1; 2 |]; [| 3; 4 |] |] in
  let y = Convolution.reference_convolution ~ker ~img ~out_size:2 in
  (* y(0,0) = 1*img(0,0) = 1; y(1,1) = img(1,1) - img(0,0) = 3. *)
  Alcotest.(check int) "y00" 1 y.(0).(0);
  Alcotest.(check int) "y11" 3 y.(1).(1)

let test_convolution_evaluator_matches_reference () =
  let mu_ij = 3 and mu_pq = 2 in
  let rng = Random.State.make [| 11 |] in
  let ker = Array.init (mu_pq + 1) (fun _ -> Array.init (mu_pq + 1) (fun _ -> Random.State.int rng 9 - 4)) in
  let img = Array.init (mu_ij + 1) (fun _ -> Array.init (mu_ij + 1) (fun _ -> Random.State.int rng 9 - 4)) in
  let alg = Convolution.algorithm ~mu_ij ~mu_pq in
  let value = Algorithm.evaluate_all alg (Convolution.semantics ~ker ~img) in
  Alcotest.(check (array (array int))) "matches direct convolution"
    (Convolution.reference_convolution ~ker ~img ~out_size:(mu_ij + 1))
    (Convolution.output_of_values ~mu_ij ~mu_pq value)

let test_convolution_structure () =
  let a = Convolution.algorithm ~mu_ij:3 ~mu_pq:2 in
  Alcotest.(check int) "n = 4" 4 (Algorithm.dim a);
  Alcotest.(check int) "m = 6" 6 (Algorithm.num_dependences a);
  (* the row-carry dependence encodes the kernel width *)
  Alcotest.(check (array int)) "d2" [| 0; 0; 1; -2 |] (Algorithm.dependence a 1)

let test_bit_matmul_structure () =
  let a = Bit_matmul.algorithm ~mu_word:2 ~mu_bit:3 in
  Alcotest.(check int) "n = 5" 5 (Algorithm.dim a);
  Alcotest.(check int) "m = 5" 5 (Algorithm.num_dependences a);
  Alcotest.(check int) "|J|" (3 * 3 * 3 * 4 * 4) (Index_set.cardinal a.Algorithm.index_set);
  Alcotest.(check bool) "prop81 normalization" true (Prop81.applicable ~s:Bit_matmul.example_s)

let test_bit_matmul_chained_values () =
  let mu_word = 2 and mu_bit = 2 in
  let rng = Random.State.make [| 31 |] in
  let a = Bit_matmul.random_word_matrix ~rng ~size:(mu_word + 1) ~mu_bit in
  let b = Bit_matmul.random_word_matrix ~rng ~size:(mu_word + 1) ~mu_bit in
  let alg = Bit_matmul.chained_algorithm ~mu_word ~mu_bit in
  let value = Algorithm.evaluate_all alg (Bit_matmul.semantics ~a ~b) in
  Alcotest.(check (array (array int))) "bit-level product = word product"
    (Matmul.reference_product a b)
    (Bit_matmul.product_of_values ~mu_word ~mu_bit value)

let test_bit_matmul_chained_on_2d_array () =
  let mu_word = 2 and mu_bit = 1 in
  let rng = Random.State.make [| 37 |] in
  let a = Bit_matmul.random_word_matrix ~rng ~size:(mu_word + 1) ~mu_bit in
  let b = Bit_matmul.random_word_matrix ~rng ~size:(mu_word + 1) ~mu_bit in
  let alg = Bit_matmul.chained_algorithm ~mu_word ~mu_bit in
  match Procedure51.optimize ~max_objective:40 alg ~s:Bit_matmul.example_s with
  | Some r ->
    let tm = Tmap.make ~s:Bit_matmul.example_s ~pi:r.Procedure51.pi in
    let rep = Exec.run alg (Bit_matmul.semantics ~a ~b) tm in
    Alcotest.(check bool) "clean, real values" true (Exec.is_clean rep)
  | None -> Alcotest.fail "expected a schedule"

let test_bit_convolution_structure () =
  let a = Bit_convolution.algorithm ~mu_sample:3 ~mu_tap:2 ~mu_bit:2 in
  Alcotest.(check int) "n = 4" 4 (Algorithm.dim a);
  Alcotest.(check int) "m = 5" 5 (Algorithm.num_dependences a);
  Alcotest.(check bool) "schedulable" true
    (Algorithm.is_acyclic_witness a (Intvec.of_ints [ 1; 4; 1; 1 ]))

let test_lu_structure () =
  let a = Lu.algorithm ~mu:3 in
  Alcotest.(check int) "n = 3" 3 (Algorithm.dim a);
  Alcotest.(check int) "m = 5" 5 (Algorithm.num_dependences a);
  (* a valid schedule exists: (3,1,1) satisfies Pi D > 0 *)
  Alcotest.(check bool) "schedulable" true
    (Algorithm.is_acyclic_witness a (Intvec.of_ints [ 3; 1; 1 ]))

let test_fir_evaluator_matches_reference () =
  let mu_i = 6 and mu_k = 3 in
  let rng = Random.State.make [| 23 |] in
  let w = Array.init (mu_k + 1) (fun _ -> Random.State.int rng 9 - 4) in
  let x = Array.init (mu_i + 1) (fun _ -> Random.State.int rng 9 - 4) in
  let alg = Fir.algorithm ~mu_i ~mu_k in
  let value = Algorithm.evaluate_all alg (Fir.semantics ~w ~x) in
  Alcotest.(check (array int)) "matches direct FIR"
    (Fir.reference_fir ~w ~x ~out_size:(mu_i + 1))
    (Fir.output_of_values ~mu_i ~mu_k value)

let test_fir_simulates_on_linear_array () =
  let mu_i = 5 and mu_k = 2 in
  let alg = Fir.algorithm ~mu_i ~mu_k in
  let w = [| 2; -1; 3 |] and x = [| 1; 2; 3; 4; 5; 6 |] in
  match Procedure51.optimize alg ~s:(Intmat.of_ints [ [ 0; 1 ] ]) with
  | Some r ->
    let tm = Tmap.make ~s:(Intmat.of_ints [ [ 0; 1 ] ]) ~pi:r.Procedure51.pi in
    let report = Exec.run alg (Fir.semantics ~w ~x) tm in
    Alcotest.(check bool) "clean" true (Exec.is_clean report);
    Alcotest.(check int) "PEs = taps" (mu_k + 1) report.Exec.num_processors
  | None -> Alcotest.fail "expected a schedule"

let test_stencil_evaluator_matches_reference () =
  let mu_t = 5 and mu_i = 7 in
  let initial = [| 0; 3; -1; 4; 1; -5; 9; 2 |] in
  let coeffs = (1, -2, 1) in
  let alg = Stencil.algorithm ~mu_t ~mu_i in
  let value = Algorithm.evaluate_all alg (Stencil.semantics ~coeffs ~initial) in
  Alcotest.(check (array int)) "matches direct sweeps"
    (Stencil.reference_sweeps ~coeffs ~initial ~steps:mu_t)
    (Stencil.row_of_values ~mu_t ~mu_i value)

let test_stencil_simulates_on_linear_array () =
  let mu_t = 4 and mu_i = 5 in
  let alg = Stencil.algorithm ~mu_t ~mu_i in
  let s = Intmat.of_ints [ [ 0; 1 ] ] in
  match Procedure51.optimize alg ~s with
  | Some r ->
    let sem = Stencil.semantics ~coeffs:(1, 1, 1) ~initial:[| 1; 0; 0; 0; 0; 0 |] in
    let report = Exec.run alg sem (Tmap.make ~s ~pi:r.Procedure51.pi) in
    Alcotest.(check bool) "clean" true (Exec.is_clean report);
    Alcotest.(check int) "one PE per cell" (mu_i + 1) report.Exec.num_processors
  | None -> Alcotest.fail "expected a schedule"

let test_stencil_matches_frontend () =
  (* The hand-built instance has exactly the structure the front end
     extracts from the equivalent source. *)
  let a =
    Loopnest.parse "for t = 0..4, i = 0..5 { A[t,i] = A[t-1,i-1] + A[t-1,i] + A[t-1,i+1] }"
  in
  let built = Stencil.algorithm ~mu_t:4 ~mu_i:5 in
  let cols m =
    List.sort compare
      (List.init (Intmat.cols m) (fun i -> Intvec.to_ints (Intmat.col m i)))
  in
  Alcotest.(check (list (list int))) "same dependences"
    (cols built.Algorithm.dependences)
    (cols a.Loopnest.algorithm.Algorithm.dependences)

let test_lu_factors_exact () =
  let mu = 3 in
  let rng = Random.State.make [| 61 |] in
  let a = Lu.random_dominant_matrix ~rng (mu + 1) in
  let alg = Lu.executable_algorithm ~mu in
  let value = Algorithm.evaluate_all alg (Lu.semantics ~a) in
  let l, u = Lu.factors_of_values ~mu value in
  (* Exact rational check: L U = A, L unit lower, U upper. *)
  let lu = Lu.matmul_q l u in
  for i = 0 to mu do
    for j = 0 to mu do
      Alcotest.(check bool)
        (Printf.sprintf "LU=A at (%d,%d)" i j)
        true
        (Qnum.equal lu.(i).(j) a.(i).(j));
      if j > i then Alcotest.(check bool) "L upper zero" true (Qnum.is_zero l.(i).(j));
      if j < i then Alcotest.(check bool) "U lower zero" true (Qnum.is_zero u.(i).(j))
    done;
    Alcotest.(check bool) "L unit diagonal" true (Qnum.equal l.(i).(i) Qnum.one)
  done

let test_lu_on_linear_array () =
  let mu = 2 in
  let rng = Random.State.make [| 67 |] in
  let a = Lu.random_dominant_matrix ~rng (mu + 1) in
  let alg = Lu.executable_algorithm ~mu in
  match Procedure51.optimize alg ~s:Lu.example_s with
  | Some r ->
    let rep = Exec.run alg (Lu.semantics ~a) (Tmap.make ~s:Lu.example_s ~pi:r.Procedure51.pi) in
    Alcotest.(check bool) "clean exact-rational LU through the array" true (Exec.is_clean rep)
  | None -> Alcotest.fail "expected a schedule"

let test_sorter_sorts () =
  let cells = 6 in
  let steps = cells + 1 in
  let initial = [| 9; -3; 7; 0; 7; -8; 4 |] in
  let alg = Sorter.algorithm ~steps ~cells in
  let value = Algorithm.evaluate_all alg (Sorter.semantics ~initial) in
  let final = Sorter.row_of_values ~steps ~cells value in
  Alcotest.(check bool) "sorted" true (Sorter.is_sorted final);
  Alcotest.(check (list int)) "same multiset"
    (List.sort compare (Array.to_list initial))
    (Array.to_list final)

let prop_sorter_sorts_random =
  QCheck.Test.make ~name:"odd-even sorter sorts random rows" ~count:100 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let cells = 2 + Random.State.int rng 6 in
      let steps = cells + 1 in
      let initial = Array.init (cells + 1) (fun _ -> Random.State.int rng 100 - 50) in
      let alg = Sorter.algorithm ~steps ~cells in
      let value = Algorithm.evaluate_all alg (Sorter.semantics ~initial) in
      let final = Sorter.row_of_values ~steps ~cells value in
      Sorter.is_sorted final
      && List.sort compare (Array.to_list initial) = Array.to_list final)

let test_sorter_on_linear_array () =
  let cells = 4 in
  let steps = cells + 1 in
  let alg = Sorter.algorithm ~steps ~cells in
  let initial = [| 5; 1; 4; 2; 3 |] in
  match Procedure51.optimize alg ~s:(Intmat.of_ints [ [ 0; 1 ] ]) with
  | Some r ->
    let rep = Exec.run alg (Sorter.semantics ~initial) (Tmap.make ~s:(Intmat.of_ints [ [ 0; 1 ] ]) ~pi:r.Procedure51.pi) in
    Alcotest.(check bool) "clean" true (Exec.is_clean rep);
    Alcotest.(check int) "one PE per cell" (cells + 1) rep.Exec.num_processors
  | None -> Alcotest.fail "expected a schedule"

let test_all_instances_schedulable () =
  (* Every shipped instance admits some valid linear schedule. *)
  let check name alg =
    let d = alg.Algorithm.dependences in
    let n = Algorithm.dim alg in
    (* Pi = (B^{n-1}, ..., B, 1) with B large dominates lexicographic order
       only for lex-positive D; instead just search small vectors. *)
    let found = ref false in
    let rec go pi i =
      if !found then ()
      else if i = n then begin
        if Schedule.respects (Intvec.of_int_array pi) d then found := true
      end
      else
        for v = -6 to 6 do
          pi.(i) <- v;
          go pi (i + 1)
        done
    in
    go (Array.make n 0) 0;
    Alcotest.(check bool) (name ^ " schedulable") true !found
  in
  check "matmul" (Matmul.algorithm ~mu:2);
  check "tc" (Transitive_closure.algorithm ~mu:2);
  check "convolution" (Convolution.algorithm ~mu_ij:2 ~mu_pq:2);
  check "bit-matmul" (Bit_matmul.algorithm ~mu_word:2 ~mu_bit:2);
  check "lu" (Lu.algorithm ~mu:2);
  check "fir" (Fir.algorithm ~mu_i:2 ~mu_k:2)

let suite =
  [
    Alcotest.test_case "matmul structure" `Quick test_matmul_structure;
    Alcotest.test_case "matmul times" `Quick test_matmul_times;
    Alcotest.test_case "tc structure (Eq 3.6)" `Quick test_tc_structure;
    Alcotest.test_case "tc times" `Quick test_tc_times;
    Alcotest.test_case "warshall" `Quick test_warshall;
    Alcotest.test_case "convolution reference" `Quick test_convolution_reference;
    Alcotest.test_case "convolution evaluator" `Quick test_convolution_evaluator_matches_reference;
    Alcotest.test_case "convolution structure" `Quick test_convolution_structure;
    Alcotest.test_case "bit-matmul structure" `Quick test_bit_matmul_structure;
    Alcotest.test_case "bit-matmul chained values" `Quick test_bit_matmul_chained_values;
    Alcotest.test_case "bit-matmul chained on 2-D array" `Slow test_bit_matmul_chained_on_2d_array;
    Alcotest.test_case "bit-convolution structure" `Quick test_bit_convolution_structure;
    Alcotest.test_case "lu structure" `Quick test_lu_structure;
    Alcotest.test_case "lu exact factors" `Quick test_lu_factors_exact;
    Alcotest.test_case "lu on linear array" `Quick test_lu_on_linear_array;
    Alcotest.test_case "fir evaluator" `Quick test_fir_evaluator_matches_reference;
    Alcotest.test_case "fir on linear array" `Quick test_fir_simulates_on_linear_array;
    Alcotest.test_case "stencil evaluator" `Quick test_stencil_evaluator_matches_reference;
    Alcotest.test_case "stencil on linear array" `Quick test_stencil_simulates_on_linear_array;
    Alcotest.test_case "stencil matches frontend" `Quick test_stencil_matches_frontend;
    Alcotest.test_case "sorter sorts" `Quick test_sorter_sorts;
    Alcotest.test_case "sorter on linear array" `Quick test_sorter_on_linear_array;
    Alcotest.test_case "all instances schedulable" `Quick test_all_instances_schedulable;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_sorter_sorts_random ]
  @ [ Alcotest.test_case "matmul optimal Pi at every mu" `Quick test_matmul_optimal_pi_every_mu ]
