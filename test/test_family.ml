(* Tests of the mu-parametric family layer (lib/mapping/family.ml):
   the soundness contract says a [Decided] evaluation must agree with
   the exact oracle and byte-for-byte with [Analysis.check] at the
   same mu, so most of these are differential properties against the
   box oracle and [Analysis.check], plus explicit boundary cases at
   |gamma_i| = mu_i where the piecewise condition switches arms. *)

let mat = Intmat.of_ints

let check_eval name fam ~mu ~free ~method_ ~witness =
  match Family.eval fam ~mu with
  | Family.Residual -> Alcotest.failf "%s: expected Decided, got Residual" name
  | Family.Decided { conflict_free; method_ = m; witness = w } ->
    Alcotest.(check bool) (name ^ ": conflict_free") free conflict_free;
    Alcotest.(check string)
      (name ^ ": method")
      (Family.method_name method_)
      (Family.method_name m);
    Alcotest.(check (option (list int)))
      (name ^ ": witness")
      (Option.map Array.to_list witness)
      (Option.map (fun v -> Array.to_list (Array.map Zint.to_int v)) w)

(* Paper Example 3.1: T = [1 1 -1; 1 4 1], unique conflict vector
   gamma = (5,-2,3).  The family must flip exactly at the box boundary
   |gamma_i| <= mu_i, and its witness must be gamma itself. *)
let test_adjugate_boundary () =
  let t = mat [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ] in
  let fam = Family.build t in
  Alcotest.(check string) "shape" "adjugate" (Family.shape_name fam);
  let gamma =
    match fam.Family.shape with
    | Family.Adjugate g -> g
    | _ -> Alcotest.fail "expected Adjugate shape"
  in
  Alcotest.(check (list int)) "gamma" [ 5; -2; 3 ]
    (Array.to_list (Array.map Zint.to_int gamma));
  (* Trapped arm: mu = |gamma| exactly (boundary is inclusive for the
     box, so equality means conflict). *)
  check_eval "mu=(5,2,3)" fam ~mu:[| 5; 2; 3 |] ~free:false
    ~method_:Family.Adjugate_form
    ~witness:(Some [| 5; -2; 3 |]);
  (* Escape arm: shrinking any single coordinate below |gamma_i| frees
     the mapping. *)
  check_eval "mu=(4,2,3)" fam ~mu:[| 4; 2; 3 |] ~free:true
    ~method_:Family.Adjugate_form ~witness:None;
  check_eval "mu=(5,1,3)" fam ~mu:[| 5; 1; 3 |] ~free:true
    ~method_:Family.Adjugate_form ~witness:None;
  check_eval "mu=(5,2,2)" fam ~mu:[| 5; 2; 2 |] ~free:true
    ~method_:Family.Adjugate_form ~witness:None;
  (* Growing the box past the boundary keeps the conflict. *)
  check_eval "mu=(9,9,9)" fam ~mu:[| 9; 9; 9 |] ~free:false
    ~method_:Family.Adjugate_form
    ~witness:(Some [| 5; -2; 3 |])

(* Exhaustive sweep of the adjugate family across the boundary grid:
   it must decide every instance and agree with the box oracle. *)
let test_adjugate_sweep_vs_oracle () =
  let t = mat [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ] in
  let fam = Family.build t in
  for m0 = 1 to 7 do
    for m1 = 1 to 4 do
      for m2 = 1 to 5 do
        let mu = [| m0; m1; m2 |] in
        match Family.eval fam ~mu with
        | Family.Residual ->
          Alcotest.failf "adjugate family residual at mu=(%d,%d,%d)" m0 m1 m2
        | Family.Decided { conflict_free; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "mu=(%d,%d,%d)" m0 m1 m2)
            (Conflict.is_conflict_free ~mu t)
            conflict_free
      done
    done
  done

let test_const_free () =
  let t = mat [ [ 1; 1; -1 ]; [ 1; 4; 1 ]; [ 0; 1; 0 ] ] in
  let fam = Family.build t in
  Alcotest.(check string) "shape" "const-free" (Family.shape_name fam);
  Alcotest.(check bool) "full rank" true fam.Family.full_rank;
  check_eval "any mu" fam ~mu:[| 1; 1; 1 |] ~free:true
    ~method_:Family.Full_rank_square ~witness:None;
  check_eval "big mu" fam ~mu:[| 100; 100; 100 |] ~free:true
    ~method_:Family.Full_rank_square ~witness:None

let test_rank_deficient_residual () =
  let t = mat [ [ 1; 2; 3 ]; [ 2; 4; 6 ] ] in
  let fam = Family.build t in
  Alcotest.(check string) "shape" "residual" (Family.shape_name fam);
  Alcotest.(check bool) "full rank" false fam.Family.full_rank;
  (match Family.eval fam ~mu:[| 3; 3; 3 |] with
  | Family.Residual -> ()
  | Family.Decided _ -> Alcotest.fail "rank-deficient family must be residual")

(* Cascade with a kernel column trapped at every mu >= 1: the witness
   must be the sign-normalized kernel column, first in scan order. *)
let test_cascade_trapped_column () =
  let t = mat [ [ 1; 0; 0; 0 ]; [ 0; 1; 0; 0 ] ] in
  let fam = Family.build t in
  Alcotest.(check string) "shape" "cascade" (Family.shape_name fam);
  (match Family.eval fam ~mu:[| 1; 1; 1; 1 |] with
  | Family.Residual -> Alcotest.fail "trapped kernel column must decide"
  | Family.Decided { conflict_free; method_ = m; witness } ->
    Alcotest.(check bool) "conflict" false conflict_free;
    Alcotest.(check string) "method"
      (Family.method_name Family.Column_infeasible)
      (Family.method_name m);
    (match witness with
    | None -> Alcotest.fail "trapped column must come with a witness"
    | Some w ->
      let wi = Array.map Zint.to_int w in
      Alcotest.(check bool) "witness in kernel" true
        (Intvec.is_zero (Intmat.mul_vec t w));
      Alcotest.(check bool) "witness inside box" true
        (Array.for_all (fun x -> abs x <= 1) wi)))

(* Cascade boundary in both arms: T = [1 0 3 0; 0 1 0 3] has kernel
   columns with a 3-entry, so mu_2/mu_3 < 3 escapes them while
   mu >= (.,.,3,3) traps one. *)
let test_cascade_boundary_both_arms () =
  let t = mat [ [ 1; 0; 3; 0 ]; [ 0; 1; 0; 3 ] ] in
  let fam = Family.build t in
  Alcotest.(check string) "shape" "cascade" (Family.shape_name fam);
  (* Trapped arm at the boundary: a kernel column fits the box. *)
  (match Family.eval fam ~mu:[| 3; 3; 3; 3 |] with
  | Family.Decided { conflict_free; _ } ->
    Alcotest.(check bool) "trapped at boundary" false conflict_free
  | Family.Residual -> Alcotest.fail "trapped cascade must decide");
  (* One step inside the boundary the columns escape; whatever the
     family answers (decided or residual) must agree with the oracle. *)
  let mu = [| 2; 2; 2; 2 |] in
  (match Family.eval fam ~mu with
  | Family.Residual -> ()
  | Family.Decided { conflict_free; _ } ->
    Alcotest.(check bool) "escape arm agrees with oracle"
      (Conflict.is_conflict_free ~mu t)
      conflict_free)

(* Codimension > 3 with C(n, n-k) past the subset cap: the family must
   drop its sufficient arm (None) rather than spend forever in
   Theorem 4.5 subsets, and its residual instances go straight to the
   exact oracle — no concrete subset search on the decision path. *)
let test_cond4_cap_drops_sufficient () =
  let no_sufficient_arm name t =
    match (Family.build t).Family.shape with
    | Family.Cascade { sufficient = None; kernel } ->
      Alcotest.(check int) (name ^ ": kernel columns")
        (Intmat.cols t - Intmat.rows t) (List.length kernel)
    | Family.Cascade { sufficient = Some _; _ } ->
      Alcotest.failf "%s: expected the subset cap to drop the sufficient arm" name
    | _ -> Alcotest.failf "%s: expected a cascade shape" name
  in
  no_sufficient_arm "[I_15 | 0]"
    (Intmat.make 15 30 (fun i j -> Zint.of_int (if i = j then 1 else 0)));
  (* Both kernels escape the unit box in every nonzero combination, so
     the instances are conflict-free, and only the oracle may say so. *)
  let residual_to_oracle name t =
    no_sufficient_arm name t;
    let mu = Array.make (Intmat.cols t) 1 in
    (match Family.eval (Family.build t) ~mu with
    | Family.Residual -> ()
    | Family.Decided _ -> Alcotest.failf "%s: expected a residual evaluation" name);
    let v = Analysis.check ~mu t in
    Alcotest.(check bool) (name ^ ": conflict-free") true v.Analysis.conflict_free;
    Alcotest.(check string) (name ^ ": decided by") "lattice-oracle"
      (Analysis.decided_by_name v.Analysis.decided_by);
    Alcotest.(check bool) (name ^ ": Family.decide agrees") true (Family.decide ~mu t)
  in
  (* Twelve [3 -2] blocks on the diagonal: C(24, 12) row subsets. *)
  residual_to_oracle "12x24 block diagonal"
    (Intmat.make 12 24 (fun i j ->
         Zint.of_int (if j = 2 * i then 3 else if j = (2 * i) + 1 then -2 else 0)));
  residual_to_oracle "[I_9 | -2 I_9]"
    (Intmat.make 9 18 (fun i j ->
         Zint.of_int (if j = i then 1 else if j = i + 9 then -2 else 0)))

(* Codec: to_string/of_string round-trip on generated families, and
   rejection of malformed strings. *)
let prop_codec_roundtrip =
  QCheck.Test.make ~name:"family codec round-trips" ~count:300 QCheck.int
    (fun seed ->
      let inst = Check.Gen.ith ~seed:(abs seed) ~size:7 0 in
      let fam = Family.build inst.Check.Instance.tmat in
      let s = Family.to_string fam in
      match Family.of_string s with
      | None -> QCheck.Test.fail_reportf "codec rejected its own output %S" s
      | Some fam' ->
        String.equal s (Family.to_string fam')
        && Family.eval fam ~mu:inst.Check.Instance.mu
           = Family.eval fam' ~mu:inst.Check.Instance.mu)

let test_codec_rejects_malformed () =
  let reject s =
    match Family.of_string s with
    | None -> ()
    | Some _ -> Alcotest.failf "of_string accepted %S" s
  in
  reject "";
  reject "garbage";
  reject "2:3:1:";
  reject "2:3:1:A(5,-2,3";
  reject "2:3:1:A(5,-2,3)x";
  reject "2:3:2:A(5,-2,3)";
  reject "2:3:1:K(1,0)!q@T";
  let t = mat [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ] in
  let s = Family.to_string (Family.build t) in
  Alcotest.(check string) "codec form" "2:3:1:A(5,-2,3)" s;
  reject (String.sub s 0 (String.length s - 1))

(* The headline soundness property: on random instances, whenever the
   family decides, the boolean agrees with the exact box oracle and a
   false verdict's witness is a real in-box conflict vector. *)
let prop_family_sound_vs_oracle =
  QCheck.Test.make ~name:"family Decided agrees with the box oracle" ~count:300
    QCheck.int (fun seed ->
      let inst = Check.Gen.ith ~seed:(abs seed) ~size:7 0 in
      let t = inst.Check.Instance.tmat and mu = inst.Check.Instance.mu in
      let fam = Family.build t in
      match Family.eval fam ~mu with
      | Family.Residual -> true
      | Family.Decided { conflict_free; witness; _ } ->
        let ok_bool = conflict_free = Check.Oracle.is_conflict_free inst in
        let ok_witness =
          match witness with
          | None -> true
          | Some w ->
            Intvec.is_zero (Intmat.mul_vec t w)
            && (not (Intvec.is_zero w))
            && Array.for_all2
                 (fun x m -> Zint.(compare (abs x) (of_int m)) <= 0)
                 w mu
        in
        ok_bool && ok_witness)

(* Byte-match against Analysis.check: same boolean, method name,
   full-rank flag and witness; family verdicts are always exact. *)
let prop_family_matches_check =
  QCheck.Test.make ~name:"family verdict byte-matches Analysis.check"
    ~count:300 QCheck.int (fun seed ->
      let inst = Check.Gen.ith ~seed:(abs seed) ~size:7 1 in
      let t = inst.Check.Instance.tmat and mu = inst.Check.Instance.mu in
      match Analysis.eval_family (Analysis.family t) ~mu with
      | None -> true
      | Some fv ->
        let v = Analysis.check ~mu t in
        fv.Analysis.conflict_free = v.Analysis.conflict_free
        && fv.Analysis.full_rank = v.Analysis.full_rank
        && String.equal
             (Analysis.decided_by_name fv.Analysis.decided_by)
             (Analysis.decided_by_name v.Analysis.decided_by)
        && Option.equal Intvec.equal fv.Analysis.witness v.Analysis.witness)

let suite =
  [
    Alcotest.test_case "adjugate boundary |gamma_i| = mu_i" `Quick
      test_adjugate_boundary;
    Alcotest.test_case "adjugate sweep agrees with oracle" `Quick
      test_adjugate_sweep_vs_oracle;
    Alcotest.test_case "square full rank is const-free" `Quick test_const_free;
    Alcotest.test_case "rank deficient is always residual" `Quick
      test_rank_deficient_residual;
    Alcotest.test_case "cascade trapped kernel column" `Quick
      test_cascade_trapped_column;
    Alcotest.test_case "cascade boundary, both arms" `Quick
      test_cascade_boundary_both_arms;
    Alcotest.test_case "cond4 subset cap drops sufficient arm" `Quick
      test_cond4_cap_drops_sufficient;
    Alcotest.test_case "codec rejects malformed strings" `Quick
      test_codec_rejects_malformed;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_family_sound_vs_oracle;
    QCheck_alcotest.to_alcotest prop_family_matches_check;
  ]
