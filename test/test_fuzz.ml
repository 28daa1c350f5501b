(* End-to-end fuzzing: generate random programs and mapping instances
   with the shared generators of [Check.Gen], push them through the
   whole pipeline (parse -> dependence extraction -> joint time/space
   optimization -> cycle-accurate simulation) and require a clean run
   whenever a mapping exists.

   This is the cross-cutting invariant of the repository: anything the
   front end accepts and the optimizers map must simulate without
   computational conflicts, causality violations or value errors.  The
   mapping-level differential property (every conflict-freedom fast
   path against the brute-force oracle, with shrinking) lives here too;
   deeper differential coverage is in [test_check.ml]. *)

(* What joint optimization guarantees: conflict-freedom, causality and
   correct dataflow.  It does NOT promise link-collision-freedom — the
   minimal-hop routing is chosen after the fact and a fuzzed program
   can legitimately collide on a link — so collisions are instead
   cross-checked against the analytical predictor ([Linkcheck] must
   agree with the simulator on whether any occur). *)
let clean_modulo_links alg tm (rep : _ Exec.report) =
  rep.Exec.conflicts = []
  && rep.Exec.causality_violations = []
  && Exec.values_agree rep
  &&
  match rep.Exec.routing with
  | None -> rep.Exec.collisions = []
  | Some routing ->
    (rep.Exec.collisions <> []) = (Linkcheck.predict alg tm routing <> [])

let prop_pipeline_clean =
  QCheck.Test.make ~name:"parse -> optimize -> simulate is always clean" ~count:60
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Check.Gen.source_program rng in
      match Loopnest.parse_result src with
      | Error _ -> true (* the generator can produce degenerate programs *)
      | Ok a -> (
        let alg = a.Loopnest.algorithm in
        match Space_opt.optimize_joint ~max_time_objective:60 alg ~k:2 with
        | None -> true
        | Some (pi, so) ->
          let tm = Tmap.make ~s:so.Space_opt.s ~pi in
          let rep = Exec.run alg Dataflow.semantics tm in
          clean_modulo_links alg tm rep
          && rep.Exec.num_processors = so.Space_opt.processors))

(* Project out the last dimension as a simple space mapping. *)
let last_axis alg =
  let n = Algorithm.dim alg in
  Intmat.make 1 n (fun _ j -> if j = n - 1 then Zint.one else Zint.zero)

let prop_optimizers_agree_on_fuzzed =
  QCheck.Test.make ~name:"Procedure 5.1 (exact) = (theorem) on fuzzed programs" ~count:40
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Check.Gen.source_program rng in
      match Loopnest.parse_result src with
      | Error _ -> true
      | Ok a ->
        let alg = a.Loopnest.algorithm in
        let s = last_axis alg in
        let mu = Index_set.bounds alg.Algorithm.index_set in
        let exact t = Intmat.rank t = Intmat.rows s + 1 && Conflict.is_conflict_free ~mu t in
        let time r = Option.map (fun x -> x.Procedure51.total_time) r in
        time (Procedure51.optimize ~valid:exact ~max_objective:40 alg ~s)
        = time (Procedure51.optimize ~max_objective:40 alg ~s))

(* Search at widths 1 and 2 against the oracle-screened reference:
   the same time-optimal schedules, in the same order. *)
let prop_search_matches_reference =
  QCheck.Test.make ~name:"Search = oracle reference on fuzzed programs" ~count:60 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      match Loopnest.parse_result (Check.Gen.source_program rng) with
      | Error _ -> true
      | Ok a ->
        let alg = a.Loopnest.algorithm in
        let s = last_axis alg in
        let reference = Reference.all_optimal_schedules ~max_objective:40 alg ~s in
        List.for_all
          (fun jobs ->
            let pool = Engine.Pool.create ~jobs () in
            List.map Intvec.to_ints (Search.all_optimal_schedules ~pool ~max_objective:40 alg ~s)
            = reference)
          [ 1; 2 ])

let prop_multi_statement_pipeline_clean =
  QCheck.Test.make ~name:"multi-statement fuzz: aligned programs simulate cleanly" ~count:40
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let src = Check.Gen.source_two_statement rng in
      match Loopnest.parse_result src with
      | Error _ -> true (* degenerate programs are allowed to be rejected *)
      | Ok a -> (
        let alg = a.Loopnest.algorithm in
        (* Alignment must produce a schedulable dependence set. *)
        match Procedure51.minimal_schedule alg with
        | None -> false (* the alignment search promised schedulability *)
        | Some _ -> (
          match Space_opt.optimize_joint ~max_time_objective:60 alg ~k:2 with
          | None -> true
          | Some (pi, so) ->
            let tm = Tmap.make ~s:so.Space_opt.s ~pi in
            clean_modulo_links alg tm (Exec.run alg Dataflow.semantics tm))))

(* The mapping-level differential property: every fast path against the
   brute-force (processor, time) collision oracle.  On failure the
   instance is shrunk before being reported, so the counterexample in
   the log is already minimal. *)
let prop_fastpaths_agree_with_oracle =
  QCheck.Test.make ~name:"differential: fast paths = brute-force oracle (shrunk on failure)"
    ~count:80 QCheck.small_nat (fun i ->
      let inst = Check.Gen.ith ~seed:0xF422 ~size:3 i in
      match Check.Diff.check_instance inst with
      | [] -> true
      | ds ->
        let f = Check.Diff.shrink_failure ~index:i inst ds in
        QCheck.Test.fail_reportf "disagreement:@.%s@.shrunk to:@.%s@.%s"
          (Check.Instance.to_string inst)
          (Check.Instance.to_string f.Check.Diff.shrunk)
          (String.concat "\n"
             (List.map
                (fun (d : Check.Diff.disagreement) ->
                  Check.Diff.path_name d.Check.Diff.path ^ ": " ^ d.Check.Diff.detail)
                ds)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pipeline_clean;
      prop_optimizers_agree_on_fuzzed;
      prop_search_matches_reference;
      prop_multi_statement_pipeline_clean;
      prop_fastpaths_agree_with_oracle;
    ]
