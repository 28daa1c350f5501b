(* The differential oracle subsystem (lib/check): corpus replay,
   oracle-vs-theorem agreement on the paper's own examples, shrinker
   laws, and seed determinism at any degree of parallelism. *)

let im = Intmat.of_ints
let inst ~mu t = Check.Instance.make ~mu (im t)

let no_disagreement what i =
  match Check.Diff.check_instance i with
  | [] -> ()
  | ds ->
    Alcotest.failf "%s: %s disagrees: %s" what
      (Check.Instance.to_string i)
      (String.concat "; "
         (List.map
            (fun (d : Check.Diff.disagreement) ->
              Check.Diff.path_name d.Check.Diff.path ^ ": " ^ d.Check.Diff.detail)
            ds))

(* ------------------------- corpus replay --------------------------- *)

let test_corpus_replay () =
  let cases = Check.Corpus.load_dir "corpus" in
  Alcotest.(check bool) "corpus directory is not empty" true (cases <> []);
  List.iter (fun (name, i) -> no_disagreement name i) cases

let test_corpus_roundtrip () =
  for i = 0 to 30 do
    let x = Check.Gen.ith ~seed:11 ~size:4 i in
    let y = Check.Instance.of_string (Check.Instance.to_string x) in
    Alcotest.(check bool) "to_string/of_string round-trip" true (Check.Instance.equal x y)
  done

(* The boundary corpus cases pin a *direction*, not just agreement:
   |gamma_i| = mu_i exactly is a conflict (Theorem 2.2 feasibility is
   strict), one less and the same kernel vector escapes. *)
let test_boundary_directions () =
  let conflict = inst ~mu:[| 1; 1; 2 |] [ [ 5; 3; 4 ] ] in
  let free = inst ~mu:[| 1; 1; 1 |] [ [ 5; 3; 4 ] ] in
  Alcotest.(check bool) "(1,1,-2) on the boundary conflicts" false
    (Check.Oracle.is_conflict_free conflict);
  Alcotest.(check bool) "one tighter bound and it is free" true
    (Check.Oracle.is_conflict_free free);
  let adj = inst ~mu:[| 2; 1 |] [ [ 1; -2 ] ] in
  Alcotest.(check bool) "adjugate-path boundary conflicts" false
    (Check.Oracle.is_conflict_free adj);
  (* The square rank-deficient regression: conflict-free despite
     rank T < n (the kernel escapes the box). *)
  let sq = inst ~mu:[| 1; 1 |] [ [ 4; 3 ]; [ -4; -3 ] ] in
  Alcotest.(check bool) "rank-deficient square is free here" true
    (Check.Oracle.is_conflict_free sq);
  Alcotest.(check bool) "Family.decide agrees" true
    (Family.decide ~mu:[| 1; 1 |] (im [ [ 4; 3 ]; [ -4; -3 ] ]));
  Alcotest.(check bool) "Analysis.check agrees" true
    (Analysis.is_conflict_free ~mu:[| 1; 1 |] (im [ [ 4; 3 ]; [ -4; -3 ] ]))

(* ------------------------ paper examples --------------------------- *)

let paper_examples () =
  let mu3 = [| 4; 4; 4 |] in
  [
    (* Example 2.1 / Equation 2.8: not conflict-free on mu = 6. *)
    ("equation-2.8", inst ~mu:[| 6; 6; 6; 6 |] [ [ 1; 7; 1; 1 ]; [ 1; 7; 1; 0 ] ]);
    (* Figure 1's diagonal collisions and its conflict-free sibling. *)
    ("figure-1-diagonal", inst ~mu:[| 4; 4 |] [ [ 1; -1 ] ]);
    ("figure-1-free", inst ~mu:[| 4; 4 |] [ [ 5; -3 ] ]);
    (* Example 3.1: the paper's matmul S under several schedules. *)
    ( "matmul-pi-1-1-1",
      Check.Instance.make ~mu:mu3 (Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 1; 1 ])) );
    ( "matmul-pi-1-4-1",
      Check.Instance.make ~mu:mu3 (Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 4; 1 ])) );
    ( "matmul-pi-2-3-2",
      Check.Instance.make ~mu:mu3 (Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 2; 3; 2 ])) );
    (* Transitive closure's space mapping with a valid schedule. *)
    ( "tc-paper-s",
      Check.Instance.make ~mu:mu3
        (Intmat.append_row Transitive_closure.paper_s (Intvec.of_ints [ 5; 1; 1 ])) );
    (* Square identity: the pure full-rank fast path. *)
    ("identity-3", inst ~mu:[| 2; 2; 2 |] [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ]);
  ]

let test_paper_examples () =
  List.iter (fun (name, i) -> no_disagreement name i) (paper_examples ())

(* ---------------------- shrinker properties ------------------------ *)

let test_shrink_idempotent () =
  let shrunk = ref 0 in
  for i = 0 to 199 do
    let x = Check.Gen.ith ~seed:23 ~size:3 i in
    (* Shrink against a property that genuinely holds of some inputs:
       "the oracle finds a collision". *)
    let keeps_failing c = not (Check.Oracle.is_conflict_free c) in
    if keeps_failing x then begin
      incr shrunk;
      let s1 = Check.Shrink.shrink ~keeps_failing x in
      let s2 = Check.Shrink.shrink ~keeps_failing s1 in
      Alcotest.(check bool) "still failing" true (keeps_failing s1);
      Alcotest.(check bool) "idempotent" true (Check.Instance.equal s1 s2);
      Alcotest.(check bool) "no larger than the input" true
        (Check.Instance.size s1 <= Check.Instance.size x)
    end
  done;
  Alcotest.(check bool) "the property exercised the shrinker" true (!shrunk > 20)

let test_shrink_candidates_strictly_smaller () =
  for i = 0 to 49 do
    let x = Check.Gen.ith ~seed:31 ~size:4 i in
    Seq.iter
      (fun c ->
        Alcotest.(check bool) "candidate strictly smaller" true
          (Check.Instance.size c < Check.Instance.size x))
      (Check.Shrink.candidates x)
  done

(* A deliberate conflict with large bounds must shrink into a small
   reproducer: this is the acceptance bar for fuzz counterexamples
   ("all mu_i <= 4"). *)
let test_shrink_lands_small () =
  let big = inst ~mu:[| 9; 9 |] [ [ 1; -1 ] ] in
  let keeps_failing c = not (Check.Oracle.is_conflict_free c) in
  Alcotest.(check bool) "big instance conflicts" true (keeps_failing big);
  let s = Check.Shrink.shrink ~keeps_failing big in
  Alcotest.(check bool) "still conflicts" true (keeps_failing s);
  Array.iter (fun m -> Alcotest.(check bool) "mu_i <= 4" true (m <= 4)) s.Check.Instance.mu

(* ------------------------ seed determinism ------------------------- *)

let test_stream_determinism () =
  let a = List.init 80 (Check.Gen.ith ~seed:7 ~size:4) in
  let b = List.init 80 (Check.Gen.ith ~seed:7 ~size:4) in
  Alcotest.(check bool) "same seed, same stream" true
    (List.for_all2 Check.Instance.equal a b);
  let c = List.init 80 (Check.Gen.ith ~seed:8 ~size:4) in
  Alcotest.(check bool) "different seed, different stream" false
    (List.for_all2 Check.Instance.equal a c)

let failures_equal (f1 : Check.Diff.failure) (f2 : Check.Diff.failure) =
  f1.Check.Diff.index = f2.Check.Diff.index
  && Check.Instance.equal f1.Check.Diff.instance f2.Check.Diff.instance
  && Check.Instance.equal f1.Check.Diff.shrunk f2.Check.Diff.shrunk
  && f1.Check.Diff.disagreements = f2.Check.Diff.disagreements

let test_run_jobs_invariant () =
  let r1 = Check.Diff.run ~jobs:1 ~seed:42 ~count:60 ~size:3 () in
  let r4 = Check.Diff.run ~jobs:4 ~seed:42 ~count:60 ~size:3 () in
  Alcotest.(check int) "same checked count" r1.Check.Diff.checked r4.Check.Diff.checked;
  Alcotest.(check bool) "same failures at jobs=1 and jobs=4" true
    (List.length r1.Check.Diff.failures = List.length r4.Check.Diff.failures
    && List.for_all2 failures_equal r1.Check.Diff.failures r4.Check.Diff.failures)

let test_fuzz_smoke_clean () =
  let r = Check.Diff.run ~jobs:2 ~seed:42 ~count:120 ~size:3 () in
  Alcotest.(check int) "no disagreements" 0 (List.length r.Check.Diff.failures)

(* -------------------- k = n-2 boundary audit ----------------------- *)

(* Exhaustive: every 1x3 mapping with entries in -3..3 against every
   mu in {1,2,3}^3.  The sufficiency conditions of Theorems 4.6/4.7
   must never claim conflict-freedom when the brute-force oracle finds
   a collision — in particular when a kernel-vector entry lands on
   |gamma_i| = mu_i exactly (feasibility is strict). *)
let test_codim2_sufficiency_sound_at_boundary () =
  let checked = ref 0 in
  let entries = [ -3; -2; -1; 0; 1; 2; 3 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              if (a, b, c) <> (0, 0, 0) then
                let t = im [ [ a; b; c ] ] in
                if Intmat.rank t = 1 then
                  List.iter
                    (fun mu ->
                      incr checked;
                      let free =
                        Check.Oracle.is_conflict_free (Check.Instance.make ~mu t)
                      in
                      let inp = Theorems.make_input ~mu t in
                      if Theorems.sufficient_cond5 inp then
                        Alcotest.(check bool) "4.6 claim is sound" true free;
                      if Theorems.nec_suff_n_minus_2 inp then
                        Alcotest.(check bool) "4.7 claim is sound" true free)
                    [ [| 1; 1; 1 |]; [| 2; 2; 2 |]; [| 3; 3; 3 |];
                      [| 1; 2; 3 |]; [| 3; 2; 1 |]; [| 1; 1; 3 |] ])
            entries)
        entries)
    entries;
  Alcotest.(check bool) "swept the family" true (!checked > 2000)

(* --------------------- generator invariants ------------------------ *)

let test_dependences_lex_positive () =
  for i = 0 to 49 do
    let rng = Random.State.make [| 0xDE; i |] in
    let cols = Check.Gen.dependences rng ~n:3 ~m:4 in
    Alcotest.(check int) "m columns" 4 (List.length cols);
    List.iter
      (fun d ->
        match List.find_opt (fun x -> x <> 0) d with
        | Some first -> Alcotest.(check bool) "lexicographically positive" true (first > 0)
        | None -> Alcotest.fail "zero dependence column")
      cols
  done

let test_generated_instances_fit_oracle () =
  for i = 0 to 199 do
    let x = Check.Gen.ith ~seed:5 ~size:5 i in
    Alcotest.(check bool) "within the oracle guard" true
      (Check.Instance.points x <= Check.Oracle.max_points)
  done

let suite =
  [
    Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
    Alcotest.test_case "corpus round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "boundary case directions" `Quick test_boundary_directions;
    Alcotest.test_case "paper examples: all fast paths = oracle" `Quick test_paper_examples;
    Alcotest.test_case "shrinker is idempotent" `Quick test_shrink_idempotent;
    Alcotest.test_case "shrink candidates strictly smaller" `Quick
      test_shrink_candidates_strictly_smaller;
    Alcotest.test_case "shrinking lands small (mu_i <= 4)" `Quick test_shrink_lands_small;
    Alcotest.test_case "seed determinism of the stream" `Quick test_stream_determinism;
    Alcotest.test_case "Diff.run invariant in --jobs" `Quick test_run_jobs_invariant;
    Alcotest.test_case "fuzz smoke: 120 instances clean" `Quick test_fuzz_smoke_clean;
    Alcotest.test_case "k=n-2 boundary audit (4.6/4.7 sound)" `Quick
      test_codim2_sufficiency_sound_at_boundary;
    Alcotest.test_case "dependence columns lexicographically positive" `Quick
      test_dependences_lex_positive;
    Alcotest.test_case "generated instances fit the oracle" `Quick
      test_generated_instances_fit_oracle;
  ]
