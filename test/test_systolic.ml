(* Tests for the cycle-accurate array simulator against the paper's
   Figures 2 and 3 and the structural claims of Examples 5.1/5.2. *)

let iv = Intvec.of_ints

let matmul_report mu pi =
  let rng = Random.State.make [| 2025 |] in
  let a = Matmul.random_matrix ~rng (mu + 1) and b = Matmul.random_matrix ~rng (mu + 1) in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi in
  Exec.run alg (Matmul.semantics ~a ~b) tm

let test_figure_3_execution () =
  let mu = 4 in
  let r = matmul_report mu (Matmul.optimal_pi ~mu) in
  Alcotest.(check int) "makespan = mu(mu+2)+1" (Matmul.optimal_total_time ~mu) r.Exec.makespan;
  Alcotest.(check int) "13 PEs" 13 r.Exec.num_processors;
  Alcotest.(check int) "125 computations" 125 r.Exec.computations;
  Alcotest.(check bool) "clean" true (Exec.is_clean r);
  Alcotest.(check (array int)) "3 buffers on the A stream" [| 0; 3; 0 |] r.Exec.max_buffer_occupancy

let test_lee_kedem_execution () =
  let mu = 4 in
  let r = matmul_report mu (Matmul.lee_kedem_pi ~mu) in
  Alcotest.(check int) "makespan = mu(mu+3)+1" (Matmul.lee_kedem_total_time ~mu) r.Exec.makespan;
  Alcotest.(check bool) "clean" true (Exec.is_clean r)

let test_conflicting_mapping_detected () =
  let r = matmul_report 4 (iv [ 1; 1; 1 ]) in
  Alcotest.(check bool) "conflicts found" true (r.Exec.conflicts <> []);
  Alcotest.(check bool) "not clean" false (Exec.is_clean r)

let test_non_causal_mapping_rejected () =
  let alg = Matmul.algorithm ~mu:2 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(iv [ 1; -1; 1 ]) in
  Alcotest.(check bool) "raises" true
    (try ignore (Exec.run alg Dataflow.semantics tm); false with Failure _ -> true)

let test_tc_execution () =
  let mu = 4 in
  let alg = Transitive_closure.algorithm ~mu in
  let tm = Tmap.make ~s:Transitive_closure.paper_s ~pi:(Transitive_closure.optimal_pi ~mu) in
  let r = Exec.run alg Dataflow.semantics tm in
  Alcotest.(check int) "makespan" (Transitive_closure.optimal_total_time ~mu) r.Exec.makespan;
  Alcotest.(check int) "mu+1 PEs" (mu + 1) r.Exec.num_processors;
  Alcotest.(check bool) "clean" true (Exec.is_clean r)

let test_tc_prior_schedule_slower_but_clean () =
  let mu = 4 in
  let alg = Transitive_closure.algorithm ~mu in
  let tm = Tmap.make ~s:Transitive_closure.paper_s ~pi:(Transitive_closure.prior_pi ~mu) in
  let r = Exec.run alg Dataflow.semantics tm in
  Alcotest.(check int) "makespan mu(2mu+3)+1" (Transitive_closure.prior_total_time ~mu) r.Exec.makespan;
  Alcotest.(check bool) "clean" true (Exec.is_clean r)

let test_convolution_2d_array () =
  (* A 4-D algorithm on a 2-D array with real arithmetic. *)
  let mu_ij = 2 and mu_pq = 1 in
  let alg = Convolution.algorithm ~mu_ij ~mu_pq in
  let ker = [| [| 1; -2 |]; [| 3; 4 |] |] in
  let img = Array.init (mu_ij + 1) (fun i -> Array.init (mu_ij + 1) (fun j -> (i * 3) + j + 1)) in
  let sem = Convolution.semantics ~ker ~img in
  (* Schedule found by Procedure 5.1 on the 2-D space map. *)
  match Procedure51.optimize alg ~s:Convolution.example_s with
  | None -> Alcotest.fail "expected a schedule"
  | Some { pi; _ } ->
    let tm = Tmap.make ~s:Convolution.example_s ~pi in
    let r = Exec.run alg sem tm in
    Alcotest.(check bool) "no conflicts" true (r.Exec.conflicts = []);
    Alcotest.(check bool) "values ok" true (Exec.values_agree r)

let test_utilization_bounds () =
  let r = matmul_report 3 (Matmul.optimal_pi ~mu:3) in
  Alcotest.(check bool) "0 < util <= 1" true (r.Exec.utilization > 0. && r.Exec.utilization <= 1.)

let test_trace_linear_table () =
  let mu = 2 in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu) in
  let table = Trace.linear_array_table alg tm in
  (* Every index point appears exactly once. *)
  Index_set.iter
    (fun j ->
      let s = Printf.sprintf "(%d,%d,%d)" j.(0) j.(1) j.(2) in
      let count = ref 0 in
      let slen = String.length s in
      for i = 0 to String.length table - slen do
        if String.sub table i slen = s then incr count
      done;
      Alcotest.(check int) ("occurrences of " ^ s) 1 !count)
    alg.Algorithm.index_set

let test_trace_rejects_2d () =
  let alg = Convolution.algorithm ~mu_ij:1 ~mu_pq:1 in
  let tm = Tmap.make ~s:Convolution.example_s ~pi:(iv [ 1; 2; 3; 4 ]) in
  Alcotest.(check bool) "2-D rejected" true
    (try ignore (Trace.linear_array_table alg tm); false with Invalid_argument _ -> true)

let test_schedule_table_is_total () =
  let mu = 2 in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu) in
  let total =
    List.fold_left (fun acc (_, evs) -> acc + List.length evs) 0 (Exec.schedule_table alg tm)
  in
  Alcotest.(check int) "all points scheduled" (Index_set.cardinal alg.Algorithm.index_set) total

let test_stats_matmul () =
  let mu = 4 in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu) in
  let s = Stats.compute alg tm in
  Alcotest.(check int) "processors" 13 s.Stats.processors;
  Alcotest.(check int) "makespan" 25 s.Stats.makespan;
  Alcotest.(check int) "computations" 125 s.Stats.computations;
  Alcotest.(check int) "wire = |S D|" 3 s.Stats.wire_length;
  Alcotest.(check bool) "loads sum to |J|" true
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Stats.pe_loads alg tm) = 125);
  Alcotest.(check bool) "peak parallelism <= processors" true
    (s.Stats.peak_parallelism <= s.Stats.processors);
  Alcotest.(check bool) "min <= max load" true (s.Stats.min_pe_load <= s.Stats.max_pe_load)

let test_grid_snapshot_2d () =
  let alg = Convolution.algorithm ~mu_ij:2 ~mu_pq:1 in
  match Procedure51.optimize alg ~s:Convolution.example_s with
  | None -> Alcotest.fail "expected a schedule"
  | Some r ->
    let tm = Tmap.make ~s:Convolution.example_s ~pi:r.Procedure51.pi in
    (* Find the first cycle and check its snapshot mentions the origin. *)
    (match Exec.schedule_table alg tm with
    | (t0, _) :: _ ->
      let snap = Trace.grid_snapshot alg tm ~time:t0 in
      Alcotest.(check bool) "snapshot nonempty" true (String.length snap > 0);
      let activity = Trace.grid_activity alg tm in
      Alcotest.(check bool) "activity nonempty" true (String.length activity > 0)
    | [] -> Alcotest.fail "empty schedule")

let test_grid_snapshot_rejects_1d () =
  let alg = Matmul.algorithm ~mu:2 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu:2) in
  Alcotest.(check bool) "1-D rejected" true
    (try ignore (Trace.grid_snapshot alg tm ~time:0); false
     with Invalid_argument _ -> true)

let test_linkcheck_paper_mappings_clean () =
  (* K = I on both paper mappings: single use per link, no collisions
     (the appendix's argument, now checked analytically). *)
  let check alg tm =
    match Tmap.find_routing tm ~d:alg.Algorithm.dependences with
    | Some r ->
      Alcotest.(check bool) "single use" true (Linkcheck.single_use_per_link r);
      Alcotest.(check (list pass)) "no collisions" [] (Linkcheck.predict alg tm r)
    | None -> Alcotest.fail "expected a routing"
  in
  check (Matmul.algorithm ~mu:4) (Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu:4));
  check
    (Transitive_closure.algorithm ~mu:4)
    (Tmap.make ~s:Transitive_closure.paper_s ~pi:(Transitive_closure.optimal_pi ~mu:4))

let prop_linkcheck_matches_simulator =
  QCheck.Test.make ~name:"analytical link collisions = simulated collisions" ~count:120
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mu = 2 + Random.State.int rng 2 in
      let alg = Matmul.algorithm ~mu in
      let s = Intmat.make 1 3 (fun _ _ -> Zint.of_int (Random.State.int rng 5 - 2)) in
      let pi = Array.init 3 (fun _ -> Zint.of_int (1 + Random.State.int rng 4)) in
      if not (Schedule.respects pi alg.Algorithm.dependences) then true
      else begin
        let tm = Tmap.make ~s ~pi in
        match Tmap.find_routing tm ~d:alg.Algorithm.dependences with
        | None -> true
        | Some routing ->
          let predicted = Linkcheck.predict alg tm routing <> [] in
          let observed = (Exec.run alg Dataflow.semantics tm).Exec.collisions <> [] in
          predicted = observed
      end)

let prop_clean_iff_conflict_free =
  QCheck.Test.make ~name:"simulator conflicts iff oracle says so (matmul family)" ~count:60
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mu = 2 + Random.State.int rng 2 in
      let alg = Matmul.algorithm ~mu in
      let pi =
        Array.init 3 (fun _ -> Zint.of_int (1 + Random.State.int rng (mu + 1)))
      in
      if not (Schedule.respects pi alg.Algorithm.dependences) then true
      else begin
        let tm = Tmap.make ~s:Matmul.paper_s ~pi in
        let t = Tmap.matrix tm in
        let r = Exec.run alg Dataflow.semantics tm in
        let free = Conflict.is_conflict_free ~mu:(Index_set.bounds alg.Algorithm.index_set) t in
        (r.Exec.conflicts = []) = free
      end)

let prop_makespan_equals_formula =
  QCheck.Test.make ~name:"simulated makespan = Equation 2.7" ~count:60 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mu = 2 + Random.State.int rng 2 in
      let alg = Matmul.algorithm ~mu in
      let pi = Array.init 3 (fun _ -> Zint.of_int (1 + Random.State.int rng 3)) in
      let tm = Tmap.make ~s:Matmul.paper_s ~pi in
      let r = Exec.run alg Dataflow.semantics tm in
      r.Exec.makespan = Schedule.total_time ~mu:(Index_set.bounds alg.Algorithm.index_set) pi)

(* --------------- compiled kernel + scenario matrix ---------------- *)

let prop_kernel_plan_shape =
  QCheck.Test.make ~name:"kernel plan: Equation 2.7, PEs, hyperplanes" ~count:100 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let mu = 2 + Random.State.int rng 3 in
      let alg =
        if Random.State.bool rng then Matmul.algorithm ~mu
        else Transitive_closure.algorithm ~mu
      in
      (* A scale of 1000 spreads the keys over ranges hundreds of
         times |J|: most buckets of the counting sorts stay empty. *)
      let scale = if Random.State.bool rng then 1 else 1000 in
      let rec causal () =
        let pi = Array.init 3 (fun _ -> Zint.of_int (scale * (Random.State.int rng 9 - 2))) in
        if Schedule.respects pi alg.Algorithm.dependences then pi else causal ()
      in
      let pi = causal () in
      let rows = 1 + Random.State.int rng 2 in
      let s =
        Intmat.make rows 3 (fun _ _ -> Zint.of_int (scale * (Random.State.int rng 5 - 2)))
      in
      let tm = Tmap.make ~s ~pi in
      let iset = alg.Algorithm.index_set in
      let plan = Kernel.lower alg tm in
      let times = Index_set.fold (fun acc j -> Schedule.time_of pi j :: acc) [] iset in
      let refused = try ignore (Kernel.compile alg tm); false with Failure _ -> true in
      Kernel.makespan plan = Schedule.total_time ~mu:(Index_set.bounds iset) pi
      && Kernel.processors plan = List.length (Tmap.processors tm iset)
      && Kernel.levels plan = List.length (List.sort_uniq compare times)
      && refused = not (Conflict.is_conflict_free ~mu:(Index_set.bounds iset) (Tmap.matrix tm)))

(* Every cell of a kernel run against the reference evaluator. *)
let check_against_reference name alg (sem : 'v Algorithm.semantics) (kr : 'v Kernel.result) =
  let reference = Algorithm.evaluate_all alg sem in
  Index_set.iter
    (fun j ->
      Alcotest.(check bool) (name ^ ": cell = reference") true
        (sem.Algorithm.equal_value (kr.Kernel.lookup j) (reference j)))
    alg.Algorithm.index_set

(* A matmul-4 sweep takes about a microsecond, the tick of a
   wall-clock read: the sweep must be timed finely enough to read
   above zero. *)
let test_kernel_sweep_timed () =
  let spec = Scenario.scenario "matmul" ~mu:4 in
  List.iter
    (fun ty ->
      let cell = Scenario.run_cell spec ty in
      Alcotest.(check bool) (cell.Scenario.dtype ^ " elapsed above zero") true
        (cell.Scenario.elapsed_s > 0. && cell.Scenario.gflops > 0.))
    Scenario.types

let test_kernel_matches_reference () =
  let spec = Scenario.scenario "matmul" ~mu:4 in
  let alg, tm = Scenario.instantiate spec in
  let plan = Kernel.compile alg tm in
  let sem = Scenario.matmul_semantics (module Scenario.Int_type) ~mu:4 ~seed:7 in
  check_against_reference "lowered" alg sem (Kernel.run plan sem);
  (* Matmul.semantics carries no lowered form: the default lowering of
     its boundary/compute closures runs it. *)
  let rng = Random.State.make [| 7 |] in
  let a = Matmul.random_matrix ~rng 5 and b = Matmul.random_matrix ~rng 5 in
  let msem = Matmul.semantics ~a ~b in
  let kr = Kernel.run plan msem in
  check_against_reference "default lowering" alg msem kr;
  Alcotest.(check bool) "C = A B" true
    (Matmul.product_of_values ~mu:4 kr.Kernel.lookup = Matmul.reference_product a b);
  Alcotest.(check int) "makespan = Equation 2.7"
    (Schedule.total_time ~mu:(Index_set.bounds alg.Algorithm.index_set) tm.Tmap.pi)
    (Kernel.makespan plan);
  Alcotest.(check int) "13 PEs as in Figure 3" 13 (Kernel.processors plan);
  Alcotest.(check int) "125 cells" 125 (Kernel.cells plan)

(* [f ()] and the arrays it took from run storage: (fresh, recycled). *)
let storage_taken f =
  let count name = Obs.Metrics.value (Obs.Metrics.counter name) in
  let fresh = count "exec.storage.fresh" and recycled = count "exec.storage.recycled" in
  let r = f () in
  (r, (count "exec.storage.fresh" - fresh, count "exec.storage.recycled" - recycled))

let test_kernel_block_invariance () =
  (* Both case studies x every dtype x jobs 1/2 x block 1 (maximal
     fan-out)/default: every run gives the first run's values bit for
     bit, the lowered loop gives those of the default lowering of the
     same closures, a run on arrays recycled from a dropped run on
     other inputs ([scrap]) gives them too, and all agree with the
     reference evaluator. *)
  let check (type v) name alg tm (sem : v Algorithm.semantics) ~(scrap : v Algorithm.semantics) =
    Alcotest.(check bool) (name ^ " carries a lowered form") true
      (Option.is_some sem.Algorithm.lowered);
    let closures = { sem with Algorithm.lowered = None } in
    let first = ref None in
    let same_values what (a : v Kernel.result) (b : v Kernel.result) =
      Index_set.iter
        (fun j ->
          Alcotest.(check bool) (name ^ ": " ^ what) true
            (a.Kernel.lookup j = b.Kernel.lookup j))
        alg.Algorithm.index_set
    in
    List.iter
      (fun jobs ->
        let pool = Engine.Pool.create ~jobs () in
        List.iter
          (fun block ->
            let plan = Kernel.compile ?block alg tm in
            let lowered = Kernel.run ~pool plan sem in
            (match !first with
             | None -> first := Some lowered
             | Some r -> same_values "jobs- and block-independent" r lowered);
            same_values "lowered = default lowering" lowered (Kernel.run ~pool plan closures);
            check_against_reference name alg sem lowered;
            if jobs > 1 && block = Some 1 then
              Alcotest.(check bool) (name ^ ": block=1 actually fanned out") true
                (lowered.Kernel.parallel_levels > 0);
            ignore (Kernel.run ~pool plan scrap);
            Gc.full_major ();
            let recycled, (fresh, _) = storage_taken (fun () -> Kernel.run ~pool plan sem) in
            Alcotest.(check int) (name ^ ": no fresh array after a collection") 0 fresh;
            same_values "recycled storage" lowered recycled)
          [ Some 1; None ])
      [ 1; 2 ]
  in
  let ma, mt = Scenario.instantiate (Scenario.scenario "matmul" ~mu:4) in
  let ta, tt = Scenario.instantiate (Scenario.scenario "tc" ~mu:4) in
  List.iter
    (fun (module M : Scenario.TYPE) ->
      check ("matmul/" ^ M.name) ma mt
        (Scenario.matmul_semantics (module M) ~mu:4 ~seed:7)
        ~scrap:(Scenario.matmul_semantics (module M) ~mu:4 ~seed:8);
      let tc = Scenario.tc_semantics (module M) in
      check ("tc/" ^ M.name) ta tt tc ~scrap:tc)
    Scenario.types

(* Run storage is recycled only once the GC has proved it unreachable:
   a held result stays intact across later runs and collections, and a
   run on recycled arrays, here arrays that held other values (matmul
   on other inputs, then tc on matmul's arrays), still computes every
   cell. *)
let test_kernel_recycled_storage () =
  List.iter
    (fun mu ->
      let ma, mt = Scenario.instantiate (Scenario.scenario "matmul" ~mu) in
      let ta, tt = Scenario.instantiate (Scenario.scenario "tc" ~mu) in
      let mplan = Kernel.compile ma mt and tplan = Kernel.compile ta tt in
      List.iter
        (fun (module M : Scenario.TYPE) ->
          let name what = Printf.sprintf "%s/mu=%d: %s" M.name mu what in
          let matmul seed = Scenario.matmul_semantics (module M) ~mu ~seed in
          let tc = Scenario.tc_semantics (module M) in
          (* A run after a collection takes only recycled arrays; its
             result is checked, then dropped. *)
          let after_collection what arrays alg plan sem =
            Gc.full_major ();
            let r, taken = storage_taken (fun () -> Kernel.run plan sem) in
            Alcotest.(check (pair int int)) (name (what ^ " takes recycled arrays")) (0, arrays) taken;
            check_against_reference (name what) alg sem r
          in
          Gc.full_major ();
          let held = Kernel.run mplan (matmul 1) in
          check_against_reference (name "dropped run") ma (matmul 2) (Kernel.run mplan (matmul 2));
          after_collection "matmul on other inputs" 3 ma mplan (matmul 3);
          after_collection "tc on matmul's arrays" 1 ta tplan tc;
          check_against_reference (name "held result") ma (matmul 1) held)
        Scenario.types)
    [ 4; 5; 6 ]

(* Dropping more arrays than the cap holds leaves the free lists full
   to the cap and no further: the mu = 63 streams are 2 MiB each.  The
   first collection returns what earlier tests dropped, so the last
   one returns only this test's arrays. *)
let test_storage_cap () =
  Gc.full_major ();
  let mu = 63 in
  let alg, tm = Scenario.instantiate (Scenario.scenario "matmul" ~mu) in
  let plan = Kernel.compile alg tm in
  let size = 8 * Kernel.cells plan in
  let runs = (Scenario.storage_cap_bytes / (3 * size)) + 1 in
  Alcotest.(check bool) "more arrays than the cap holds" true
    (3 * runs * size > Scenario.storage_cap_bytes);
  let hold_then_drop (module M : Scenario.TYPE) =
    let held = List.init runs (fun seed -> Kernel.run plan (Scenario.matmul_semantics (module M) ~mu ~seed)) in
    ignore (Sys.opaque_identity held)
  in
  List.iter hold_then_drop [ (module Scenario.Int_type : Scenario.TYPE); (module Scenario.Float_type) ];
  Gc.full_major ();
  let ints, floats = Scenario.storage_retained_bytes () in
  List.iter
    (fun (what, bytes) ->
      Alcotest.(check bool) (what ^ " retained within the cap") true
        (bytes <= Scenario.storage_cap_bytes);
      Alcotest.(check bool) (what ^ " filled with the newest arrays") true
        (bytes >= Scenario.storage_cap_bytes / size * size))
    [ ("int", ints); ("float", floats) ]

let test_kernel_rejects_non_causal () =
  let alg = Matmul.algorithm ~mu:2 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(iv [ 1; -1; 1 ]) in
  Alcotest.(check bool) "raises" true
    (try ignore (Kernel.compile alg tm); false with Failure _ -> true)

let test_kernel_rejects_conflicting () =
  (* Pi° = (1, mu, 1) at odd mu: the gate names a shared (time, PE)
     and two points that really fire there. *)
  let mu = 5 in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(iv [ 1; mu; 1 ]) in
  match Kernel.compile alg tm with
  | _ -> Alcotest.fail "a conflicting mapping compiled"
  | exception Failure msg ->
    Scanf.sscanf msg
      "Kernel.compile: computational conflict at t=%d pe=(%d): points (%d,%d,%d) and (%d,%d,%d)"
      (fun t pe a0 a1 a2 b0 b1 b2 ->
        let a = [| a0; a1; a2 |] and b = [| b0; b1; b2 |] in
        Alcotest.(check bool) "two points" true (a <> b);
        List.iter
          (fun j ->
            Alcotest.(check int) "same time" t (Tmap.time_of tm j);
            Alcotest.(check (array int)) "same PE" [| pe |] (Tmap.space_of tm j))
          [ a; b ])

let test_scenario_matrix_verifies () =
  let pool = Engine.Pool.create ~jobs:2 () in
  let specs =
    List.concat_map
      (fun mu -> [ Scenario.scenario "matmul" ~mu; Scenario.scenario "tc" ~mu ])
      [ 4; 5 ]
  in
  let cells = Scenario.run_matrix ~pool specs Scenario.types in
  Alcotest.(check int) "4 scenarios x 3 dtypes" 12 (List.length cells);
  List.iter
    (fun (c : Scenario.cell) ->
      let name = c.Scenario.spec.Scenario.name ^ "/" ^ c.Scenario.dtype in
      Alcotest.(check bool) (name ^ " verified") true (Scenario.cell_ok c);
      Alcotest.(check bool) (name ^ " movement checks ran clean") true
        (Scenario.movement_clean c.Scenario.movement))
    cells

let test_ulp_distance () =
  Alcotest.(check int) "equal" 0 (Scenario.ulp_distance 1.5 1.5);
  Alcotest.(check int) "adjacent" 1
    (Scenario.ulp_distance 1.0 (Float.succ 1.0));
  Alcotest.(check bool) "sign change is far" true
    (Scenario.ulp_distance (-1e-300) 1e-300 = max_int);
  Alcotest.(check bool) "nan is far" true
    (Scenario.ulp_distance Float.nan 0.0 = max_int)

(* ----------------- verification verdicts (Exec) ------------------- *)

let test_exec_fully_verified () =
  let r = matmul_report 4 (Matmul.optimal_pi ~mu:4) in
  Alcotest.(check string) "values-ok" "values-ok"
    (Exec.verification_name r.Exec.verified);
  Alcotest.(check bool) "fully verified" true (Exec.fully_verified r)

let test_exec_skipped_no_routing () =
  (* S = [5,0,0] forces dependence (1,0,0) to travel 5 PEs in 1 cycle:
     no routing exists within the slack, so movement checks are
     skipped — and the report must say so rather than claim values_ok
     silently (is_clean still holds, fully_verified must not). *)
  let alg = Matmul.algorithm ~mu:2 in
  let tm = Tmap.make ~s:(Intmat.of_ints [ [ 5; 0; 0 ] ]) ~pi:(iv [ 1; 1; 1 ]) in
  let r = Exec.run alg Dataflow.semantics tm in
  Alcotest.(check bool) "routing absent" true (r.Exec.routing = None);
  Alcotest.(check string) "skipped-no-routing" "skipped-no-routing"
    (Exec.verification_name r.Exec.verified);
  Alcotest.(check bool) "values still agree" true (Exec.values_agree r);
  Alcotest.(check bool) "not fully verified" false (Exec.fully_verified r)

let test_exec_mismatch_detected () =
  (* An always-false equality makes every cell disagree: the verdict
     must be Mismatch with witnesses, never a bare boolean. *)
  let alg = Matmul.algorithm ~mu:2 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu:2) in
  let sem = { Dataflow.semantics with Algorithm.equal_value = (fun _ _ -> false) } in
  let r = Exec.run alg sem tm in
  (match r.Exec.verified with
  | Exec.Mismatch (w :: _) ->
    Alcotest.(check int) "witness arity" 3 (Array.length w)
  | _ -> Alcotest.fail "expected Mismatch with witnesses");
  Alcotest.(check bool) "values disagree" false (Exec.values_agree r);
  Alcotest.(check bool) "not clean" false (Exec.is_clean r)

(* ------------- link collisions + register bound (5.1) ------------- *)

let test_linkcheck_forced_collision () =
  (* A crafted K that routes the A stream (+1,+1,-1) instead of the
     minimal (+1): displacement still 1, hops 3 <= slack 4 under
     Pi = (1,4,1), but the +1 link is used twice — exactly the [23]
     condition, so the analytical checker must predict a collision. *)
  let mu = 4 in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(iv [ 1; 4; 1 ]) in
  let p = Tmap.nearest_neighbor_primitives 1 in
  let col_of v =
    let rec go i =
      if i >= Intmat.cols p then Alcotest.fail "primitive not found"
      else if Zint.to_int (Intmat.get p 0 i) = v then i
      else go (i + 1)
    in
    go 0
  in
  let plus = col_of 1 and minus = col_of (-1) in
  (* S D = [1, 1, -1]: stream 0 hops +1, stream 2 hops -1, and the
     detoured stream 1 hops +1,+1,-1. *)
  let k_matrix =
    Intmat.make 2 3 (fun r c ->
        Zint.of_int
          (if c = 0 then (if r = plus then 1 else 0)
           else if c = 1 then (if r = plus then 2 else 1)
           else if r = minus then 1
           else 0))
  in
  let sd = Intmat.mul tm.Tmap.s alg.Algorithm.dependences in
  Alcotest.(check bool) "P K = S D" true
    (Intmat.equal (Intmat.mul p k_matrix) sd);
  let routing = { Tmap.k_matrix; hops = [| 1; 3; 1 |]; buffers = [| 0; 1; 0 |] } in
  Alcotest.(check bool) "multi-use detected" false
    (Linkcheck.single_use_per_link routing);
  let predictions = Linkcheck.predict alg tm routing in
  Alcotest.(check bool) "collision predicted" true (predictions <> []);
  List.iter
    (fun (pr : Linkcheck.prediction) ->
      Alcotest.(check int) "on the detoured stream" 1 pr.Linkcheck.stream;
      let l1, l2 = pr.Linkcheck.hop_positions in
      Alcotest.(check bool) "ordered hop pair" true (l1 < l2))
    predictions

let test_register_bound_ex51 () =
  (* Example 5.1: the A stream needs Pi d_i - sum_j k_ji = 4 - 1 = 3
     delay registers, the other streams none.  The simulator's observed
     buffer occupancy must meet the analytical bound exactly on A and
     never exceed it anywhere. *)
  let mu = 4 in
  let alg = Matmul.algorithm ~mu in
  let pi = Matmul.optimal_pi ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi in
  (match Tmap.find_routing tm ~d:alg.Algorithm.dependences with
  | None -> Alcotest.fail "expected a routing"
  | Some routing ->
    Alcotest.(check (array int)) "buffers = Pi d_i - hops_i" [| 0; 3; 0 |]
      routing.Tmap.buffers;
    Array.iteri
      (fun i h ->
        let pid =
          Zint.to_int (Intvec.dot pi (Intmat.col alg.Algorithm.dependences i))
        in
        Alcotest.(check int)
          (Printf.sprintf "stream %d: buffers = Pi d - hops" i)
          (pid - h) routing.Tmap.buffers.(i))
      routing.Tmap.hops;
    let r = matmul_report mu pi in
    Array.iteri
      (fun i occ ->
        Alcotest.(check bool)
          (Printf.sprintf "stream %d: occupancy <= bound" i) true
          (occ <= routing.Tmap.buffers.(i)))
      r.Exec.max_buffer_occupancy;
    Alcotest.(check int) "A stream meets the bound" routing.Tmap.buffers.(1)
      r.Exec.max_buffer_occupancy.(1))

(* ------------------- pinned Exec reports (digest) ------------------ *)

(* A seeded draw of small causal mappings: n in 2..4, mu_i in 1..3,
   1..3 dependences in {-1,0,1}^n, S with 1..2 rows in [-2,2] and Pi
   in [-2,4]^n; draws with Pi D > 0 failing are skipped.  Each report
   goes into one digest, order-free: conflict sets (points sorted),
   collision records, causality pairs, buffer vectors, verification
   names, makespan and PE count. *)
let test_exec_report_digest () =
  let buf = Buffer.create (1 lsl 16) in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let causal = ref 0 and conflicting = ref 0 and colliding = ref 0 in
  let buffered = ref 0 and unrouted = ref 0 in
  for draw = 0 to 2999 do
    let rng = Random.State.make [| 0xd16e57; draw |] in
    let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
    let n = int 2 4 in
    let mu = Array.init n (fun _ -> int 1 3) in
    let m = int 1 3 in
    let deps = List.init m (fun _ -> List.init n (fun _ -> int (-1) 1)) in
    let rows = int 1 2 in
    let s = Array.init rows (fun _ -> List.init n (fun _ -> int (-2) 2)) in
    let pi = Array.init n (fun _ -> Zint.of_int (int (-2) 4)) in
    let alg = Algorithm.make ~name:"digest" ~index_set:(Index_set.make mu) ~dependences:deps in
    if Schedule.respects pi alg.Algorithm.dependences then begin
      incr causal;
      let tm = Tmap.make ~s:(Intmat.of_ints (Array.to_list s)) ~pi in
      let r = Exec.run alg Dataflow.semantics tm in
      if r.Exec.conflicts <> [] then incr conflicting;
      if r.Exec.collisions <> [] then incr colliding;
      if Array.exists (fun b -> b > 1) r.Exec.max_buffer_occupancy then incr buffered;
      if r.Exec.routing = None then incr unrouted;
      Printf.bprintf buf "#%d makespan=%d pes=%d buffers=%s %s\n" draw r.Exec.makespan
        r.Exec.num_processors (ints r.Exec.max_buffer_occupancy)
        (Exec.verification_name r.Exec.verified);
      List.map
        (fun (c : Exec.conflict) ->
          (c.Exec.time, c.Exec.pe, List.sort compare c.Exec.points))
        r.Exec.conflicts
      |> List.sort compare
      |> List.iter (fun (t, pe, points) ->
             Printf.bprintf buf "conflict %d (%s): %s\n" t (ints pe)
               (String.concat " " (List.map ints points)));
      List.map
        (fun (c : Exec.collision) ->
          (c.Exec.at_time, c.Exec.link_pe, c.Exec.primitive, c.Exec.stream, c.Exec.count))
        r.Exec.collisions
      |> List.sort compare
      |> List.iter (fun (t, pe, prim, stream, count) ->
             Printf.bprintf buf "collision %d (%s) (%s) %d x%d\n" t (ints pe) (ints prim)
               stream count);
      List.sort compare r.Exec.causality_violations
      |> List.iter (fun (j, i) -> Printf.bprintf buf "late (%s) %d\n" (ints j) i)
    end
  done;
  Alcotest.(check (list int)) "causal, conflicting, colliding, buffered > 1, unrouted"
    [ 651; 191; 110; 103; 292 ]
    [ !causal; !conflicting; !colliding; !buffered; !unrouted ];
  Alcotest.(check string) "digest" "2620498b936e43774e88b759131ae2a8" (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Keys that span far more values than J has points: Pi = (10^6, 1, 1)
   on matmul at mu = 2 puts 27 points on 2,000,005 cycles.  A counting
   sort sized by that range would allocate 16 MB per time sort, and
   Exec.run makes one for the plan and one per stream; the plan and
   the whole simulation must stay within a megabyte. *)
let test_plan_memory_linear () =
  let alg = Matmul.algorithm ~mu:2 in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(iv [ 1_000_000; 1; 1 ]) in
  (* [Gc.allocated_bytes] counts minor-heap words only when a minor
     collection runs, so one on each side of the call makes every
     window count exactly the words allocated inside it. *)
  let allocated f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = f () in
    Gc.minor ();
    (r, Gc.allocated_bytes () -. before)
  in
  let plan, plan_bytes = allocated (fun () -> Kernel.compile alg tm) in
  Alcotest.(check int) "makespan" 2_000_005 (Kernel.makespan plan);
  Alcotest.(check int) "levels: 3 values of j0 by 5 of j1 + j2" 15 (Kernel.levels plan);
  Alcotest.(check bool) "plan under 1 MB" true (plan_bytes < 1e6);
  let r, run_bytes = allocated (fun () -> Exec.run alg Dataflow.semantics tm) in
  Alcotest.(check bool) "clean" true (Exec.is_clean r);
  Alcotest.(check int) "same makespan" 2_000_005 r.Exec.makespan;
  Alcotest.(check bool) "simulation under 1 MB" true (run_bytes < 1e6)

let suite =
  [
    Alcotest.test_case "Figure 3 execution" `Quick test_figure_3_execution;
    Alcotest.test_case "Lee-Kedem execution" `Quick test_lee_kedem_execution;
    Alcotest.test_case "conflict detection" `Quick test_conflicting_mapping_detected;
    Alcotest.test_case "non-causal rejected" `Quick test_non_causal_mapping_rejected;
    Alcotest.test_case "transitive closure execution" `Quick test_tc_execution;
    Alcotest.test_case "tc prior schedule" `Quick test_tc_prior_schedule_slower_but_clean;
    Alcotest.test_case "4-D convolution on 2-D array" `Slow test_convolution_2d_array;
    Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
    Alcotest.test_case "trace table" `Quick test_trace_linear_table;
    Alcotest.test_case "trace rejects 2-D" `Quick test_trace_rejects_2d;
    Alcotest.test_case "schedule table total" `Quick test_schedule_table_is_total;
    Alcotest.test_case "stats matmul" `Quick test_stats_matmul;
    Alcotest.test_case "2-D grid snapshot" `Slow test_grid_snapshot_2d;
    Alcotest.test_case "grid rejects 1-D" `Quick test_grid_snapshot_rejects_1d;
    Alcotest.test_case "linkcheck paper mappings" `Quick test_linkcheck_paper_mappings_clean;
    Alcotest.test_case "kernel matches reference" `Quick test_kernel_matches_reference;
    Alcotest.test_case "kernel block invariance" `Quick test_kernel_block_invariance;
    Alcotest.test_case "kernel recycled storage" `Quick test_kernel_recycled_storage;
    Alcotest.test_case "run storage cap" `Quick test_storage_cap;
    Alcotest.test_case "kernel rejects non-causal" `Quick test_kernel_rejects_non_causal;
    Alcotest.test_case "scenario matrix verifies" `Quick test_scenario_matrix_verifies;
    Alcotest.test_case "ulp distance" `Quick test_ulp_distance;
    Alcotest.test_case "exec fully verified" `Quick test_exec_fully_verified;
    Alcotest.test_case "exec skipped-no-routing" `Quick test_exec_skipped_no_routing;
    Alcotest.test_case "exec mismatch detected" `Quick test_exec_mismatch_detected;
    Alcotest.test_case "linkcheck forced collision" `Quick test_linkcheck_forced_collision;
    Alcotest.test_case "register bound Ex 5.1" `Quick test_register_bound_ex51;
    Alcotest.test_case "kernel sweep timed" `Quick test_kernel_sweep_timed;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_linkcheck_matches_simulator;
        prop_clean_iff_conflict_free;
        prop_makespan_equals_formula;
        prop_kernel_plan_shape;
      ]
  @ [
      Alcotest.test_case "exec report digest" `Quick test_exec_report_digest;
      Alcotest.test_case "kernel rejects conflicting" `Quick test_kernel_rejects_conflicting;
      Alcotest.test_case "plan memory linear in |J|" `Quick test_plan_memory_linear;
    ]
