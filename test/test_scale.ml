(* Scale and robustness checks: larger inputs that push the
   arbitrary-precision paths (big HNF multipliers, long simplex
   tableaux, deep accumulation chains) while staying fast enough for
   every test run. *)

let test_hnf_large_entries () =
  (* Entries around 10^9: products overflow 64-bit during elimination,
     so this exercises genuine multi-digit Zint arithmetic. *)
  let rng = Random.State.make [| 101 |] in
  let t =
    Intmat.make 3 6 (fun _ _ ->
        Zint.of_int (Random.State.full_int rng 2_000_000_000 - 1_000_000_000))
  in
  let res = Hnf.compute t in
  Alcotest.(check bool) "verify" true (Hnf.verify t res);
  let res' = Hnf.compute ~strategy:Hnf.Gcdext t in
  Alcotest.(check bool) "verify gcdext" true (Hnf.verify t res')

let test_det_large_matrix () =
  (* 7x7 with entries up to 10^6: the Bareiss intermediates exceed
     native range by far. *)
  let rng = Random.State.make [| 103 |] in
  let m = Intmat.make 7 7 (fun _ _ -> Zint.of_int (Random.State.int rng 2_000_001 - 1_000_000)) in
  let d = Intmat.det m in
  (* det(M) = det(M^T) and adjugate identity still hold exactly. *)
  Alcotest.(check bool) "transpose" true (Zint.equal d (Intmat.det (Intmat.transpose m)));
  Alcotest.(check bool) "adjugate" true
    (Intmat.equal (Intmat.mul m (Intmat.adjugate m)) (Intmat.scale d (Intmat.identity 7)))

let test_smith_larger () =
  let rng = Random.State.make [| 107 |] in
  let m = Intmat.make 5 6 (fun _ _ -> Zint.of_int (Random.State.int rng 201 - 100)) in
  let res = Smith.compute m in
  Alcotest.(check bool) "verify" true (Smith.verify m res)

let test_simplex_larger_lp () =
  (* 8 variables, 20 constraints; optimum must satisfy everything and
     match the best enumerated vertex is too costly here, so check
     feasibility + boundedness structure instead. *)
  let rng = Random.State.make [| 109 |] in
  let n = 8 in
  let box =
    List.concat (List.init n (fun i -> Lin.[ ge_int (var n i) 0; le_int (var n i) 9 ]))
  in
  let cuts =
    List.init 20 (fun _ ->
        let e = Array.init n (fun _ -> Qnum.of_int (Random.State.int rng 7 - 3)) in
        Lin.(e <=. Qnum.of_int (Random.State.int rng 40)))
  in
  let obj = Array.init n (fun _ -> Qnum.of_int (Random.State.int rng 11 - 5)) in
  let p = Simplex.{ nvars = n; objective = obj; constraints = box @ cuts } in
  (match Simplex.solve p with
  | Simplex.Optimal { x; _ } ->
    Alcotest.(check bool) "feasible" true (List.for_all (Lin.satisfies x) p.Simplex.constraints)
  | Simplex.Infeasible -> ()
  | Simplex.Unbounded -> Alcotest.fail "bounded box cannot be unbounded")

let test_matmul_mu30_closed_form () =
  (* Optimization at mu = 30 — only practical through the closed-form
     conflict test; the paper's formula must hold. *)
  let mu = 30 in
  match Procedure51.optimize (Matmul.algorithm ~mu) ~s:Matmul.paper_s with
  | Some r ->
    Alcotest.(check int) "t = mu(mu+2)+1" (Matmul.optimal_total_time ~mu) r.Procedure51.total_time
  | None -> Alcotest.fail "expected a schedule"

let test_conflict_lattice_mu_10000 () =
  (* Extreme bounds: decidable in microseconds via the lattice. *)
  let mu = [| 10_000; 10_000; 10_000 |] in
  let free = Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 10_000; 1 ]) in
  Alcotest.(check bool) "free" true (Conflict.find_conflict_lattice ~mu free = None);
  let bad = Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 9_999; 1 ]) in
  (* gamma = (-10000, 2, -9998)/2 = (-5000, 1, -4999): inside the box. *)
  Alcotest.(check bool) "conflicts" true (Conflict.find_conflict_lattice ~mu bad <> None)

let test_deep_accumulation_chain () =
  (* A 1-D chain of length 3000: the evaluator must not blow the stack
     and the running sum must be exact. *)
  let n = 3000 in
  let alg =
    Algorithm.make ~name:"chain" ~index_set:(Index_set.make [| n |]) ~dependences:[ [ 1 ] ]
  in
  let sem =
    {
      Algorithm.boundary = (fun _ _ -> 0);
      compute = (fun j ops -> ops.(0) + j.(0));
      equal_value = Int.equal;
      pp_value = Format.pp_print_int;
      lowered = None;
    }
  in
  Alcotest.(check int) "sum 0..n" (n * (n + 1) / 2) (Algorithm.evaluate alg sem [| n |])

let test_simulation_mu10 () =
  (* 1331 points end to end with value checking. *)
  let mu = 10 in
  let rng = Random.State.make [| 113 |] in
  let a = Matmul.random_matrix ~rng (mu + 1) and b = Matmul.random_matrix ~rng (mu + 1) in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu) in
  let r = Exec.run (Matmul.algorithm ~mu) (Matmul.semantics ~a ~b) tm in
  Alcotest.(check bool) "clean" true (Exec.is_clean r);
  Alcotest.(check int) "makespan" (Matmul.optimal_total_time ~mu) r.Exec.makespan

let suite =
  [
    Alcotest.test_case "hnf with 10^9 entries" `Quick test_hnf_large_entries;
    Alcotest.test_case "7x7 determinant" `Quick test_det_large_matrix;
    Alcotest.test_case "smith 5x6" `Quick test_smith_larger;
    Alcotest.test_case "simplex 8 vars 36 constraints" `Quick test_simplex_larger_lp;
    Alcotest.test_case "matmul mu=30 formula" `Slow test_matmul_mu30_closed_form;
    Alcotest.test_case "lattice oracle at mu=10000" `Quick test_conflict_lattice_mu_10000;
    Alcotest.test_case "deep accumulation chain" `Quick test_deep_accumulation_chain;
    Alcotest.test_case "simulation at mu=10" `Slow test_simulation_mu10;
  ]
