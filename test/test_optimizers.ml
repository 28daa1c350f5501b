(* Tests for Procedure 5.1, the ILP formulation (5.1)-(5.2) and
   Proposition 8.1. *)

let iv = Intvec.of_ints

let test_candidates_at_cost () =
  (* mu = (1,1): cost 1 candidates are (±1, 0), (0, ±1). *)
  let c = Procedure51.candidates_at_cost ~mu:[| 1; 1 |] 1 in
  Alcotest.(check int) "four" 4 (List.length c);
  (* weighted: mu = (2,3), cost 6: |pi1|*2 + |pi2|*3 = 6:
     (3,0),(0,2) and signs: 2 + 2 = 4 *)
  let c = Procedure51.candidates_at_cost ~mu:[| 2; 3 |] 6 in
  Alcotest.(check int) "weighted" 4 (List.length c);
  (* The walk solves its last component; the reference enumerates the
     whole box.  Same candidates, same order. *)
  let same name mu cost =
    Alcotest.(check (list (list int)))
      name (Reference.candidates ~mu cost)
      (List.map Intvec.to_ints (Procedure51.candidates_at_cost ~mu cost))
  in
  (* mu = (2, 3), cost 7: after pi_1 = 0, +-1 or +-3 the remainder (7, 5
     or 1) is no multiple of 3; only pi_1 = +-2 leaves 3. *)
  Alcotest.(check (list (list int)))
    "remainder not divisible" [ [ 2; 1 ]; [ 2; -1 ]; [ -2; 1 ]; [ -2; -1 ] ]
    (List.map Intvec.to_ints (Procedure51.candidates_at_cost ~mu:[| 2; 3 |] 7));
  same "remainder not divisible = reference" [| 2; 3 |] 7;
  Alcotest.(check int) "cost 129 at mu = 10 is empty" 0
    (List.length (Procedure51.candidates_at_cost ~mu:[| 10; 10; 10 |] 129));
  same "cost 130 at mu = 10" [| 10; 10; 10 |] 130;
  (* |pi|_1 = 13 in three dimensions: 4 * 13^2 + 2 points. *)
  Alcotest.(check int) "cost 130 at mu = 10 counts" 678
    (List.length (Procedure51.candidates_at_cost ~mu:[| 10; 10; 10 |] 130));
  (* A zero last component: the remainder is used up before it. *)
  same "zero last component" [| 1; 2; 3 |] 3;
  Alcotest.(check bool) "(1, 1, 0) at mu = (1, 2, 3), cost 3" true
    (List.mem [ 1; 1; 0 ]
       (List.map Intvec.to_ints (Procedure51.candidates_at_cost ~mu:[| 1; 2; 3 |] 3)));
  List.iter
    (fun cost -> same (Printf.sprintf "mu = (2, 3, 1), cost %d" cost) [| 2; 3; 1 |] cost)
    [ 0; 1; 5; 11 ]

let test_candidates_cover_objective () =
  (* Every candidate at cost c has objective exactly c. *)
  let mu = [| 2; 3; 1 |] in
  List.iter
    (fun c ->
      List.iter
        (fun pi -> Alcotest.(check int) "objective" c (Schedule.objective ~mu pi))
        (Procedure51.candidates_at_cost ~mu c))
    [ 1; 2; 3; 4; 5 ]

let test_matmul_optimum_matches_paper () =
  (* Example 5.1: t = mu(mu+2) + 1. *)
  List.iter
    (fun mu ->
      let alg = Matmul.algorithm ~mu in
      match Procedure51.optimize alg ~s:Matmul.paper_s with
      | Some r ->
        Alcotest.(check int)
          (Printf.sprintf "total time mu=%d" mu)
          (Matmul.optimal_total_time ~mu) r.Procedure51.total_time
      | None -> Alcotest.fail "expected a schedule")
    [ 2; 3; 4; 5; 6 ]

let test_tc_optimum_matches_paper () =
  (* Example 5.2: t = mu(mu+3) + 1, Pi = (mu+1, 1, 1). *)
  List.iter
    (fun mu ->
      let alg = Transitive_closure.algorithm ~mu in
      match Procedure51.optimize alg ~s:Transitive_closure.paper_s with
      | Some r ->
        Alcotest.(check int)
          (Printf.sprintf "total time mu=%d" mu)
          (Transitive_closure.optimal_total_time ~mu)
          r.Procedure51.total_time
      | None -> Alcotest.fail "expected a schedule")
    [ 2; 3; 4; 5 ]

let test_tc_paper_pi_is_valid () =
  let mu = 5 in
  let alg = Transitive_closure.algorithm ~mu in
  let pi = Transitive_closure.optimal_pi ~mu in
  Alcotest.(check bool) "respects D" true (Schedule.respects pi alg.Algorithm.dependences);
  let t = Intmat.append_row Transitive_closure.paper_s pi in
  Alcotest.(check bool) "conflict-free" true
    (Conflict.is_conflict_free ~mu:(Index_set.bounds alg.Algorithm.index_set) t)

(* The default screen (rank test and the family cascade) against the
   rank test and the exact oracle alone. *)
let test_exact_and_theorem_checks_agree () =
  let alg = Matmul.algorithm ~mu:3 in
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let k = Intmat.rows Matmul.paper_s + 1 in
  let exact t = Intmat.rank t = k && Conflict.is_conflict_free ~mu t in
  let r1 = Procedure51.optimize ~valid:exact alg ~s:Matmul.paper_s in
  let r2 = Procedure51.optimize alg ~s:Matmul.paper_s in
  match (r1, r2) with
  | Some a, Some b ->
    Alcotest.(check int) "same optimum" a.Procedure51.total_time b.Procedure51.total_time;
    Alcotest.(check bool) "same schedule" true (Intvec.equal a.Procedure51.pi b.Procedure51.pi)
  | _ -> Alcotest.fail "expected schedules"

let test_optimize_with_routing () =
  let mu = 3 in
  let alg = Matmul.algorithm ~mu in
  match Procedure51.optimize ~require_routing:true alg ~s:Matmul.paper_s with
  | Some r ->
    Alcotest.(check bool) "routing present" true (r.Procedure51.routing <> None);
    Alcotest.(check int) "optimum unchanged" (Matmul.optimal_total_time ~mu) r.Procedure51.total_time
  | None -> Alcotest.fail "expected a schedule"

let test_optimize_infeasible_space_map () =
  (* S with a kernel direction equal to a dependence makes every
     candidate conflict... not quite; instead use max_objective too
     small to find anything. *)
  let alg = Matmul.algorithm ~mu:4 in
  Alcotest.(check bool) "bounded search gives up" true
    (Procedure51.optimize ~max_objective:5 alg ~s:Matmul.paper_s = None)

let test_minimal_schedule () =
  (* For D = I, Pi D > 0 forces every component positive: (1,1,1). *)
  let alg = Matmul.algorithm ~mu:4 in
  (match Procedure51.minimal_schedule alg with
  | Some pi -> Alcotest.(check (list int)) "matmul free" [ 1; 1; 1 ] (Intvec.to_ints pi)
  | None -> Alcotest.fail "expected a schedule");
  let alg = Transitive_closure.algorithm ~mu:4 in
  match Procedure51.minimal_schedule alg with
  | Some pi ->
    Alcotest.(check bool) "respects D" true (Schedule.respects pi alg.Algorithm.dependences);
    (* pi1 > pi2 + pi3 forces cost >= 5 at mu-uniform weights. *)
    Alcotest.(check (list int)) "tc free" [ 3; 1; 1 ] (Intvec.to_ints pi)
  | None -> Alcotest.fail "expected a schedule"

(* ----------------------- ILP formulation ----------------------- *)

let test_ilp_form_matmul () =
  let mu = 4 in
  let alg = Matmul.algorithm ~mu in
  match Ilp_form.optimize alg ~s:Matmul.paper_s with
  | Some sol ->
    Alcotest.(check int) "objective mu(mu+2)" (mu * (mu + 2)) sol.Ilp_form.objective;
    (* The solution has the paper's cost; the specific schedule may be
       any of the cost-24 winners ((1,4,1), (4,1,1), (1,2,3), ...). *)
    ignore iv;
    let t = Intmat.append_row Matmul.paper_s sol.Ilp_form.pi in
    Alcotest.(check bool) "conflict-free" true
      (Conflict.is_conflict_free ~mu:[| mu; mu; mu |] t);
    Alcotest.(check bool) "appendix integrality" true sol.Ilp_form.integral_vertices
  | None -> Alcotest.fail "expected a solution"

let test_ilp_form_odd_mu_edge_point () =
  (* At odd mu every vertex of the optimal face fails the postponed gcd
     check and the optimum is an interior lattice point of the face
     (EXPERIMENTS.md E6). *)
  let mu = 3 in
  let alg = Matmul.algorithm ~mu in
  match Ilp_form.optimize alg ~s:Matmul.paper_s with
  | Some sol ->
    Alcotest.(check int) "objective mu(mu+2)" (mu * (mu + 2)) sol.Ilp_form.objective;
    Alcotest.(check bool) "gamma feasible" true
      (Conflict.is_feasible ~mu:[| mu; mu; mu |] sol.Ilp_form.gamma)
  | None -> Alcotest.fail "expected a solution"

let test_ilp_form_tc () =
  let mu = 4 in
  let alg = Transitive_closure.algorithm ~mu in
  match Ilp_form.optimize alg ~s:Transitive_closure.paper_s with
  | Some sol ->
    Alcotest.(check int) "objective mu(mu+3)" (mu * (mu + 3)) sol.Ilp_form.objective;
    Alcotest.(check (list int)) "Pi = (mu+1, 1, 1)" [ mu + 1; 1; 1 ] (Intvec.to_ints sol.Ilp_form.pi);
    Alcotest.(check (list int)) "gamma = (1, -(mu+1), 0)" [ 1; -(mu + 1); 0 ]
      (Intvec.to_ints sol.Ilp_form.gamma)
  | None -> Alcotest.fail "expected a solution"

let test_ilp_form_equals_procedure51 () =
  (* Experiment E12: the two optimizers agree on the optimum value. *)
  List.iter
    (fun mu ->
      let alg = Matmul.algorithm ~mu in
      match (Ilp_form.optimize alg ~s:Matmul.paper_s, Procedure51.optimize alg ~s:Matmul.paper_s) with
      | Some a, Some b ->
        Alcotest.(check int) "agree" (a.Ilp_form.objective + 1) b.Procedure51.total_time
      | _ -> Alcotest.fail "expected solutions")
    [ 2; 3; 4; 5 ]

let test_ilp_form_branch_count () =
  let alg = Matmul.algorithm ~mu:4 in
  Alcotest.(check int) "2n branches" 6 (List.length (Ilp_form.branches alg ~s:Matmul.paper_s))

let test_ilp_form_wrong_shape () =
  let alg = Matmul.algorithm ~mu:3 in
  Alcotest.(check bool) "S must be (n-2) x n" true
    (try ignore (Ilp_form.branches alg ~s:(Intmat.of_ints [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ])); false
     with Invalid_argument _ -> true)

let test_formulation_5_5_5_6 () =
  (* The (5.5)-(5.6) route (Prop 8.1-screened) agrees with the general
     Procedure 5.1 on the 5-D -> 2-D bit-level mapping. *)
  let alg = Bit_matmul.algorithm ~mu_word:2 ~mu_bit:2 in
  let s = Bit_matmul.example_s in
  match
    ( Ilp_form.optimize_5d_to_2d ~max_objective:40 alg ~s,
      Procedure51.optimize ~max_objective:40 alg ~s )
  with
  | Some (_, t1), Some r -> Alcotest.(check int) "same optimum" r.Procedure51.total_time t1
  | _ -> Alcotest.fail "expected schedules"

let test_formulation_5_5_5_6_rejects_bad_s () =
  let alg = Bit_matmul.algorithm ~mu_word:2 ~mu_bit:2 in
  let bad = Intmat.of_ints [ [ 2; 0; 0; 0; 0 ]; [ 0; 1; 0; 0; 0 ] ] in
  Alcotest.(check bool) "normalization enforced" true
    (try ignore (Ilp_form.optimize_5d_to_2d alg ~s:bad); false
     with Invalid_argument _ -> true)

(* ----------------------- Proposition 8.1 ----------------------- *)

let test_prop81_applicability () =
  Alcotest.(check bool) "bit-matmul S applicable" true (Prop81.applicable ~s:Bit_matmul.example_s);
  Alcotest.(check bool) "wrong shape" false (Prop81.applicable ~s:Matmul.paper_s);
  let bad = Intmat.of_ints [ [ 2; 0; 0; 0; 0 ]; [ 0; 1; 0; 0; 0 ] ] in
  Alcotest.(check bool) "s11 <> 1" false (Prop81.applicable ~s:bad)

let test_prop81_kernel_generators () =
  let s = Bit_matmul.example_s in
  let pi = iv [ 3; 5; 7; 11; 13 ] in
  match Prop81.compute ~s ~pi with
  | Some r ->
    let t = Intmat.append_row s pi in
    Alcotest.(check bool) "T u4 = 0" true (Intvec.is_zero (Intmat.mul_vec t r.Prop81.u4));
    Alcotest.(check bool) "T u5 = 0" true (Intvec.is_zero (Intmat.mul_vec t r.Prop81.u5));
    (* u4, u5 must generate the same lattice as the HNF kernel basis. *)
    let canon b = (Hnf.compute (Intmat.of_cols b)).Hnf.h in
    Alcotest.(check bool) "full kernel lattice" true
      (Intmat.equal (canon [ r.Prop81.u4; r.Prop81.u5 ]) (canon (Hnf.kernel_basis t)))
  | None -> Alcotest.fail "expected Prop81 to apply"

let prop_prop81_decide_exact =
  QCheck.Test.make ~name:"Prop 8.1 decide = exact oracle" ~count:300 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let s12 = Random.State.int rng 5 - 2 and s21 = Random.State.int rng 5 - 2 in
      let s22 = (s21 * s12) + 1 in
      let rest () = Random.State.int rng 7 - 3 in
      let s =
        Intmat.of_ints
          [ [ 1; s12; rest (); rest (); rest () ]; [ s21; s22; rest (); rest (); rest () ] ]
      in
      let pi = Array.init 5 (fun _ -> Zint.of_int (Random.State.int rng 11 - 5)) in
      let mu = Array.init 5 (fun _ -> 1 + Random.State.int rng 4) in
      Prop81.decide ~mu ~s ~pi
      = Conflict.is_conflict_free ~mu (Intmat.append_row s pi))

let prop_prop81_matches_hnf =
  QCheck.Test.make ~name:"Prop 8.1 generators = HNF kernel lattice" ~count:300 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      (* Random S satisfying the normalization, random Pi. *)
      let s12 = Random.State.int rng 7 - 3 and s21 = Random.State.int rng 7 - 3 in
      let s22 = (s21 * s12) + 1 in
      let rest () = Random.State.int rng 9 - 4 in
      let s =
        Intmat.of_ints
          [ [ 1; s12; rest (); rest (); rest () ]; [ s21; s22; rest (); rest (); rest () ] ]
      in
      let pi = Array.init 5 (fun _ -> Zint.of_int (Random.State.int rng 11 - 5)) in
      match Prop81.compute ~s ~pi with
      | None ->
        (* only when rank T < 3 *)
        Intmat.rank (Intmat.append_row s pi) < 3
      | Some r ->
        let t = Intmat.append_row s pi in
        Intvec.is_zero (Intmat.mul_vec t r.Prop81.u4)
        && Intvec.is_zero (Intmat.mul_vec t r.Prop81.u5)
        &&
        let canon b = (Hnf.compute (Intmat.of_cols b)).Hnf.h in
        Intmat.equal (canon [ r.Prop81.u4; r.Prop81.u5 ]) (canon (Hnf.kernel_basis t)))

let suite =
  [
    Alcotest.test_case "candidate enumeration" `Quick test_candidates_at_cost;
    Alcotest.test_case "candidates hit their cost" `Quick test_candidates_cover_objective;
    Alcotest.test_case "matmul optimum (Example 5.1)" `Slow test_matmul_optimum_matches_paper;
    Alcotest.test_case "tc optimum (Example 5.2)" `Slow test_tc_optimum_matches_paper;
    Alcotest.test_case "tc paper Pi valid" `Quick test_tc_paper_pi_is_valid;
    Alcotest.test_case "exact vs theorem check" `Quick test_exact_and_theorem_checks_agree;
    Alcotest.test_case "optimize with routing" `Quick test_optimize_with_routing;
    Alcotest.test_case "bounded search returns None" `Quick test_optimize_infeasible_space_map;
    Alcotest.test_case "minimal free schedule" `Quick test_minimal_schedule;
    Alcotest.test_case "ILP matmul (Example 5.1)" `Quick test_ilp_form_matmul;
    Alcotest.test_case "ILP odd-mu edge point" `Quick test_ilp_form_odd_mu_edge_point;
    Alcotest.test_case "ILP tc (Example 5.2)" `Quick test_ilp_form_tc;
    Alcotest.test_case "ILP = Procedure 5.1 (E12)" `Slow test_ilp_form_equals_procedure51;
    Alcotest.test_case "2n branches" `Quick test_ilp_form_branch_count;
    Alcotest.test_case "ILP wrong shape" `Quick test_ilp_form_wrong_shape;
    Alcotest.test_case "formulation (5.5)-(5.6)" `Slow test_formulation_5_5_5_6;
    Alcotest.test_case "(5.5)-(5.6) rejects bad S" `Quick test_formulation_5_5_5_6_rejects_bad_s;
    Alcotest.test_case "Prop 8.1 applicability" `Quick test_prop81_applicability;
    Alcotest.test_case "Prop 8.1 generators" `Quick test_prop81_kernel_generators;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_prop81_matches_hnf; prop_prop81_decide_exact ]
