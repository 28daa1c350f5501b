(* Boundary-condition battery: smallest legal inputs, degenerate
   shapes, and API corners not covered by the per-module suites. *)

let iv = Intvec.of_ints
let im = Intmat.of_ints

(* ----------------------------- zint/qnum ---------------------------- *)

let test_zint_infix () =
  let open Zint.Infix in
  let z = Zint.of_int in
  Alcotest.(check bool) "ops" true
    (z 2 + z 3 = z 5
    && z 2 * z 3 = z 6
    && z 7 - z 2 = z 5
    && z 7 / z 2 = z 3
    && ~-(z 4) = z (-4)
    && z 1 < z 2 && z 2 <= z 2 && z 3 > z 2 && z 3 >= z 3 && z 1 <> z 2)

let test_qnum_infix_and_mul_zint () =
  let open Qnum.Infix in
  let q = Qnum.of_ints in
  Alcotest.(check bool) "ops" true
    (q 1 2 + q 1 3 = q 5 6 && q 1 2 * q 2 3 = q 1 3 && q 3 4 - q 1 4 = q 1 2
    && q 1 2 / q 1 4 = q 2 1 && ~-(q 1 2) = q (-1) 2 && q 1 3 < q 1 2);
  Alcotest.(check bool) "mul_zint" true
    (Qnum.equal (Qnum.mul_zint (Qnum.of_ints 1 6) (Zint.of_int 3)) (Qnum.of_ints 1 2))

let test_zint_succ_pred_minmax () =
  let z = Zint.of_int in
  Alcotest.(check int) "succ" 1 (Zint.to_int (Zint.succ Zint.zero));
  Alcotest.(check int) "pred" (-1) (Zint.to_int (Zint.pred Zint.zero));
  Alcotest.(check int) "min" (-5) (Zint.to_int (Zint.min (z (-5)) (z 3)));
  Alcotest.(check int) "max" 3 (Zint.to_int (Zint.max (z (-5)) (z 3)));
  Alcotest.(check bool) "divisible" true (Zint.divisible (z 12) (z 4));
  Alcotest.(check bool) "not divisible" false (Zint.divisible (z 12) (z 5));
  Alcotest.(check int) "mul_int" 21 (Zint.to_int (Zint.mul_int (z 7) 3));
  Alcotest.(check int) "add_int" 10 (Zint.to_int (Zint.add_int (z 7) 3))

let test_zint_hash_consistent () =
  let a = Zint.of_string "123456789012345678901234567890" in
  let b = Zint.of_string "123456789012345678901234567890" in
  Alcotest.(check int) "equal values hash equal" (Zint.hash a) (Zint.hash b)

(* ------------------------------ linalg ------------------------------ *)

let test_1x1_everything () =
  let m = im [ [ 7 ] ] in
  Alcotest.(check int) "det" 7 (Zint.to_int (Intmat.det m));
  Alcotest.(check int) "rank" 1 (Intmat.rank m);
  Alcotest.(check (list (list int))) "adjugate" [ [ 1 ] ] (Intmat.to_ints (Intmat.adjugate m));
  let res = Hnf.compute m in
  Alcotest.(check bool) "hnf" true (Hnf.verify m res);
  let sm = Smith.compute m in
  Alcotest.(check (list int)) "smith" [ 7 ] (List.map Zint.to_int sm.Smith.invariant_factors)

let test_hnf_without_reduction () =
  let t = im [ [ 4; 6; 2 ]; [ 2; 8; 9 ] ] in
  let res = Hnf.compute ~reduce:false t in
  (* Shape only: TU = H, unimodularity, zero block. *)
  Alcotest.(check bool) "verify" true (Hnf.verify t res)

let test_hnf_zero_matrix () =
  let t = Intmat.zero 2 3 in
  let res = Hnf.compute t in
  Alcotest.(check int) "rank 0" 0 res.Hnf.rank;
  Alcotest.(check int) "kernel is everything" 3 (List.length (Hnf.kernel_basis t))

let test_vec_scale_zero () =
  Alcotest.(check bool) "0 * v = 0" true
    (Intvec.is_zero (Intvec.scale Zint.zero (iv [ 3; -4 ])))

let test_intmat_pp_roundtrip_shape () =
  let m = im [ [ 1; -22 ]; [ 333; 4 ] ] in
  let s = Intmat.to_string m in
  Alcotest.(check bool) "mentions all entries" true
    (List.for_all
       (fun needle ->
         let nh = String.length s and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
         go 0)
       [ "1"; "-22"; "333"; "4" ])

(* -------------------------------- lp -------------------------------- *)

let test_lin_pp () =
  let c = Lin.(le_int (of_ints [ 1; -2; 0 ]) 5) in
  let s = Format.asprintf "%a" Lin.pp_constr c in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_lin_eval_and_satisfies () =
  let x = Array.map Qnum.of_int [| 2; 3 |] in
  Alcotest.(check bool) "eval" true
    (Qnum.equal (Lin.eval (Lin.of_ints [ 1; 2 ]) x) (Qnum.of_int 8));
  Alcotest.(check bool) "eq satisfied" true (Lin.satisfies x Lin.(eq_int (of_ints [ 1; 2 ]) 8));
  Alcotest.(check bool) "eq violated" false (Lin.satisfies x Lin.(eq_int (of_ints [ 1; 2 ]) 9))

let test_simplex_trivial_problems () =
  (* No constraints at all: minimum of a nonzero objective is unbounded;
     of a zero objective, zero. *)
  let p = Simplex.{ nvars = 1; objective = Lin.of_ints [ 1 ]; constraints = [] } in
  (match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded");
  let p0 = Simplex.{ nvars = 1; objective = Lin.of_ints [ 0 ]; constraints = [] } in
  match Simplex.solve p0 with
  | Simplex.Optimal { obj; _ } -> Alcotest.(check bool) "zero" true (Qnum.is_zero obj)
  | _ -> Alcotest.fail "expected optimum"

let test_vertex_single_point () =
  (* x = 3 exactly: one vertex. *)
  let vs = Vertex.enumerate ~nvars:1 [ Lin.eq_int (Lin.of_ints [ 1 ]) 3 ] in
  Alcotest.(check int) "one vertex" 1 (List.length vs)

(* ----------------------------- uda/mapping -------------------------- *)

let test_mu_1_box () =
  (* The smallest legal index set: {0,1}^n. *)
  let mu = [| 1; 1 |] in
  Alcotest.(check bool) "diag conflicts" false (Conflict.is_conflict_free ~mu (im [ [ 1; -1 ] ]));
  Alcotest.(check bool) "(2,-1) free" true (Conflict.is_conflict_free ~mu (im [ [ 1; -2 ] ]))

let test_k_equals_n_mapping () =
  (* Square T: conflict-freedom is exactly nonsingularity. *)
  let mu = [| 3; 3 |] in
  Alcotest.(check bool) "identity free" true (Family.decide ~mu (Intmat.identity 2));
  Alcotest.(check bool) "singular not" false (Family.decide ~mu (im [ [ 1; 1 ]; [ 2; 2 ] ]))

let test_routing_zero_displacement () =
  (* A dependence that stays on the same PE needs no hops. *)
  let tm = Tmap.make ~s:(im [ [ 1; 0 ] ]) ~pi:(iv [ 1; 1 ]) in
  let d = im [ [ 0 ]; [ 1 ] ] in
  match Tmap.find_routing tm ~d with
  | Some r ->
    Alcotest.(check (array int)) "0 hops" [| 0 |] r.Tmap.hops;
    Alcotest.(check (array int)) "1 buffer" [| 1 |] r.Tmap.buffers
  | None -> Alcotest.fail "expected routing"

let test_routing_with_custom_p () =
  (* Diagonal links allow a 2-D displacement in one hop. *)
  let tm = Tmap.make ~s:(im [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ]) ~pi:(iv [ 1; 1; 1 ]) in
  let d = im [ [ 1 ]; [ 1 ]; [ 0 ] ] in
  let p_diag = im [ [ 1; -1 ]; [ 1; -1 ] ] in
  match Tmap.find_routing ~p:p_diag tm ~d with
  | Some r -> Alcotest.(check (array int)) "one diagonal hop" [| 1 |] r.Tmap.hops
  | None -> Alcotest.fail "expected routing"

let test_schedule_negative_entries () =
  (* Equation 2.7 with mixed-sign Pi. *)
  Alcotest.(check int) "total time" (1 + (2 * 3) + (1 * 4))
    (Schedule.total_time ~mu:[| 3; 4 |] (iv [ -2; 1 ]))

let test_tmap_processors_negative_coords () =
  let tm = Tmap.make ~s:(im [ [ 1; -1 ] ]) ~pi:(iv [ 1; 2 ]) in
  let procs = Tmap.processors tm (Index_set.make [| 2; 2 |]) in
  (* S j in [-2, 2]: 5 PEs. *)
  Alcotest.(check int) "5 PEs" 5 (List.length procs)

(* ----------------------------- systolic ----------------------------- *)

let test_exec_single_dependence_line () =
  (* 1-D chain: n = 1 algorithm on a single PE. *)
  let alg =
    Algorithm.make ~name:"chain" ~index_set:(Index_set.make [| 5 |]) ~dependences:[ [ 1 ] ]
  in
  let tm = Tmap.make ~s:(im [ [ 0 ] ]) ~pi:(iv [ 1 ]) in
  let r = Exec.run alg Dataflow.semantics tm in
  Alcotest.(check int) "one PE" 1 r.Exec.num_processors;
  Alcotest.(check int) "6 cycles" 6 r.Exec.makespan;
  Alcotest.(check bool) "clean" true (Exec.is_clean r)

let test_firing_list_total () =
  let alg = Matmul.algorithm ~mu:1 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(iv [ 1; 2; 4 ]) in
  let listing = Trace.firing_list alg tm in
  (* 8 points, each on its own or shared line; all rendered. *)
  let count = ref 0 in
  String.iter (fun c -> if c = '<' then incr count) listing;
  Alcotest.(check int) "8 firings" 8 !count

let test_stats_single_point_algorithm () =
  let alg =
    Algorithm.make ~name:"tiny" ~index_set:(Index_set.make [| 1 |]) ~dependences:[ [ 1 ] ]
  in
  let tm = Tmap.make ~s:(im [ [ 0 ] ]) ~pi:(iv [ 1 ]) in
  let s = Stats.compute alg tm in
  Alcotest.(check int) "computations" 2 s.Stats.computations;
  Alcotest.(check int) "peak" 1 s.Stats.peak_parallelism

(* ----------------------------- frontend ----------------------------- *)

let test_frontend_constant_index () =
  (* A constant array subscript parses: OUT[i, 0]... actually constants
     appear in input subscripts. *)
  let a = Loopnest.parse "for i = 0..3, j = 0..3 { B[i,j] = B[i,j-1] + A[i,0] }" in
  Alcotest.(check bool) "has accumulation" true
    (List.exists (fun (d, _) -> Intvec.to_ints d = [ 0; 1 ]) a.Loopnest.dependence_origin)

let test_frontend_whitespace_insensitive () =
  let a = Loopnest.parse "for i=0..3,k=0..2{Y[i]=Y[i]+W[k]*X[i-k]}" in
  Alcotest.(check int) "n = 2" 2 (Algorithm.dim a.Loopnest.algorithm)

let suite =
  [
    Alcotest.test_case "zint infix" `Quick test_zint_infix;
    Alcotest.test_case "qnum infix / mul_zint" `Quick test_qnum_infix_and_mul_zint;
    Alcotest.test_case "zint succ/pred/min/max" `Quick test_zint_succ_pred_minmax;
    Alcotest.test_case "zint hash" `Quick test_zint_hash_consistent;
    Alcotest.test_case "1x1 linalg" `Quick test_1x1_everything;
    Alcotest.test_case "hnf without reduction" `Quick test_hnf_without_reduction;
    Alcotest.test_case "hnf zero matrix" `Quick test_hnf_zero_matrix;
    Alcotest.test_case "scale by zero" `Quick test_vec_scale_zero;
    Alcotest.test_case "matrix printing" `Quick test_intmat_pp_roundtrip_shape;
    Alcotest.test_case "lin pp" `Quick test_lin_pp;
    Alcotest.test_case "lin eval/satisfies" `Quick test_lin_eval_and_satisfies;
    Alcotest.test_case "simplex trivial" `Quick test_simplex_trivial_problems;
    Alcotest.test_case "vertex single point" `Quick test_vertex_single_point;
    Alcotest.test_case "mu = 1 box" `Quick test_mu_1_box;
    Alcotest.test_case "k = n mapping" `Quick test_k_equals_n_mapping;
    Alcotest.test_case "zero-displacement routing" `Quick test_routing_zero_displacement;
    Alcotest.test_case "custom P routing" `Quick test_routing_with_custom_p;
    Alcotest.test_case "negative schedule entries" `Quick test_schedule_negative_entries;
    Alcotest.test_case "negative PE coordinates" `Quick test_tmap_processors_negative_coords;
    Alcotest.test_case "1-D chain simulation" `Quick test_exec_single_dependence_line;
    Alcotest.test_case "firing list total" `Quick test_firing_list_total;
    Alcotest.test_case "single-point stats" `Quick test_stats_single_point_algorithm;
    Alcotest.test_case "frontend constant index" `Quick test_frontend_constant_index;
    Alcotest.test_case "frontend whitespace" `Quick test_frontend_whitespace_insensitive;
  ]
