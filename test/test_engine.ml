(* Tests for the engine subsystem: worker pool determinism, the memo
   cache, the Obs metrics and spans the engine emits, and the search
   agreeing with the oracle-screened [Reference] at every pool width. *)

let mu3 = [| 4; 4; 4 |]

let vec_lists = Alcotest.(list (list int))
let to_ints_l vs = List.map Intvec.to_ints vs

(* ------------------------------ pool ------------------------------- *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      let pool = Engine.Pool.create ~jobs () in
      Alcotest.(check (list int))
        (Printf.sprintf "map order, jobs=%d" jobs)
        (List.map (fun x -> (x * 7) mod 13) xs)
        (Engine.Pool.map pool (fun x -> (x * 7) mod 13) xs))
    [ 1; 2; 4 ]

let test_pool_edge_cases () =
  let pool = Engine.Pool.create ~jobs:4 () in
  Alcotest.(check (list int)) "empty" [] (Engine.Pool.map pool succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Engine.Pool.map pool succ [ 1 ]);
  Alcotest.(check int) "jobs clamped to 1" 1 (Engine.Pool.jobs (Engine.Pool.create ~jobs:0 ()))

let test_pool_exception () =
  let pool = Engine.Pool.create ~jobs:3 () in
  Alcotest.(check bool) "worker exception propagates" true
    (try
       ignore (Engine.Pool.map pool (fun x -> if x = 5 then failwith "boom" else x) [ 1; 5; 9 ]);
       false
     with Failure _ -> true)

(* Helpers outlive a map: over many maps, some task on a domain other
   than the caller's sees a per-domain task count above one map's 16,
   which a domain spawned per map never reaches. *)
let test_pool_reuses_helpers () =
  let pool = Engine.Pool.create ~jobs:2 () in
  let count = Domain.DLS.new_key (fun () -> 0) in
  let caller = (Domain.self () :> int) in
  let task _ =
    Unix.sleepf 1e-4;
    let c = Domain.DLS.get count + 1 in
    Domain.DLS.set count c;
    ((Domain.self () :> int), c)
  in
  let seen =
    List.concat (List.init 200 (fun _ -> Engine.Pool.map pool task (List.init 16 Fun.id)))
  in
  Alcotest.(check bool) "a helper ran tasks of more than one map" true
    (List.exists (fun (d, c) -> d <> caller && c > 16) seen)

(* A map inside a task finds the helpers taken and runs on its caller. *)
let test_pool_nested () =
  let xs = List.init 20 Fun.id in
  let inline () = Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "pool.inline" in
  List.iter
    (fun jobs ->
      let pool = Engine.Pool.create ~jobs () in
      let before = inline () in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "nested map, jobs=%d" jobs)
        (List.map (fun x -> [ x + 1; x + 1; x + 1 ]) xs)
        (Engine.Pool.map pool (fun x -> Engine.Pool.map pool succ [ x; x; x ]) xs);
      Alcotest.(check int)
        (Printf.sprintf "inner maps ran inline, jobs=%d" jobs)
        (if jobs = 1 then 0 else List.length xs)
        (inline () - before))
    [ 1; 2; 4 ]

let test_pool_two_threads () =
  let pool = Engine.Pool.create ~jobs:2 () in
  let f x = (x * x) + 1 in
  let xs = List.init 16 Fun.id in
  let ok = Atomic.make true in
  let run () =
    try
      for _ = 1 to 200 do
        if Engine.Pool.map pool f xs <> List.map f xs then Atomic.set ok false
      done
    with _ -> Atomic.set ok false
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create run ()));
  Alcotest.(check bool) "every result equals List.map" true (Atomic.get ok)

let test_pool_lowest_failure () =
  let xs = List.init 64 Fun.id in
  let f x = if x = 17 || x = 40 then failwith (string_of_int x) else x in
  List.iter
    (fun jobs ->
      let pool = Engine.Pool.create ~jobs () in
      for _ = 1 to 50 do
        match Engine.Pool.map pool f xs with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure m ->
          Alcotest.(check string) (Printf.sprintf "lowest failing index, jobs=%d" jobs) "17" m
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "next map after failures, jobs=%d" jobs)
        xs (Engine.Pool.map pool Fun.id xs))
    [ 1; 2; 4 ]

(* ------------------------- search = reference ---------------------- *)

let test_search_schedules_agree () =
  let alg = Matmul.algorithm ~mu:4 in
  let reference = Reference.all_optimal_schedules alg ~s:Matmul.paper_s in
  let tc = Transitive_closure.algorithm ~mu:4 in
  let tc_reference = Reference.all_optimal_schedules tc ~s:Transitive_closure.paper_s in
  List.iter
    (fun jobs ->
      let pool = Engine.Pool.create ~jobs () in
      let got = to_ints_l (Search.all_optimal_schedules ~pool alg ~s:Matmul.paper_s) in
      Alcotest.check vec_lists (Printf.sprintf "matmul schedules, jobs=%d" jobs) reference got;
      Alcotest.check vec_lists
        (Printf.sprintf "tc schedules, jobs=%d" jobs)
        tc_reference
        (to_ints_l (Search.all_optimal_schedules ~pool tc ~s:Transitive_closure.paper_s)))
    [ 1; 4 ]

let test_search_best_by_buffers_agree () =
  let alg = Matmul.algorithm ~mu:4 in
  let reference =
    Reference.best_by_buffers alg ~s:Matmul.paper_s
      (Reference.all_optimal_schedules alg ~s:Matmul.paper_s)
  in
  List.iter
    (fun jobs ->
      let pool = Engine.Pool.create ~jobs () in
      match (reference, Search.best_by_buffers ~pool alg ~s:Matmul.paper_s) with
      | Some (pi_ref, (registers, _)), Some (pi, rt) ->
        Alcotest.(check (list int)) (Printf.sprintf "same pi, jobs=%d" jobs) pi_ref (Intvec.to_ints pi);
        Alcotest.(check int)
          (Printf.sprintf "same registers, jobs=%d" jobs)
          registers
          (Array.fold_left ( + ) 0 rt.Tmap.buffers)
      | _ -> Alcotest.fail "expected a buffer-minimal schedule from both")
    [ 1; 4 ]

let test_search_pareto_agree () =
  let alg = Matmul.algorithm ~mu:3 in
  let reference = Reference.pareto_front alg ~k:2 in
  List.iter
    (fun jobs ->
      let pool = Engine.Pool.create ~jobs () in
      let got = List.map Reference.point (Search.pareto_front ~pool alg ~k:2) in
      Alcotest.(check bool) (Printf.sprintf "pareto front, jobs=%d" jobs) true (reference = got))
    [ 1; 4 ]

(* A schedules request reports the schedule list and a buffer-minimal
   pick from one scan, so the pick comes from the reported list. *)
let test_search_scans_once () =
  let request =
    Server.Protocol.Search
      { algorithm = "matmul"; mu = 4; s = None; pareto = false; array_dim = 1; deadline_ms = Some 0 }
  in
  let pool = Engine.Pool.create ~jobs:2 () in
  Obs.Trace.enable ();
  let fields =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        Server.Handlers.execute ~pool ~store:None request)
  in
  let scans =
    List.filter (fun sp -> sp.Obs.Trace.name = "search.schedule-scan") (Obs.Trace.spans ())
  in
  Alcotest.(check int) "one schedule scan" 1 (List.length scans);
  match (List.assoc "schedules" fields, List.assoc "best_by_buffers" fields) with
  | Json.Arr schedules, Json.Obj best ->
    Alcotest.(check int) "six schedules" 6 (List.length schedules);
    Alcotest.(check bool) "best pi is a listed schedule" true
      (List.mem (List.assoc "pi" best) schedules)
  | _ -> Alcotest.fail "expected a schedule list and a buffer-minimal pick"

let test_search_empty_under_bound () =
  let alg = Matmul.algorithm ~mu:4 in
  let pool = Engine.Pool.create ~jobs:2 () in
  Alcotest.check vec_lists "no schedule under tiny bound" []
    (to_ints_l (Search.all_optimal_schedules ~pool ~max_objective:3 alg ~s:Matmul.paper_s))

(* ------------------------------ cache ------------------------------ *)

let test_cache_hits () =
  Engine.Cache.clear ();
  let t = Intmat.of_ints [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ] in
  let v1 = Analysis.check ~mu:mu3 t in
  let before = Engine.Cache.stats () in
  let v2 = Analysis.check ~mu:mu3 t in
  let after = Engine.Cache.stats () in
  Alcotest.(check bool) "same verdict" true
    (v1.Analysis.conflict_free = v2.Analysis.conflict_free
    && v1.Analysis.decided_by = v2.Analysis.decided_by);
  Alcotest.(check bool) "repeat query hits the cache" true
    (after.Engine.Cache.hits > before.Engine.Cache.hits);
  Alcotest.(check bool) "entries retained" true (after.Engine.Cache.entries > 0)

let test_cache_clear () =
  let t = Intmat.of_ints [ [ 1; 0; 0 ]; [ 0; 1; 5 ] ] in
  ignore (Analysis.check ~mu:mu3 t);
  Engine.Cache.clear ();
  let s = Engine.Cache.stats () in
  Alcotest.(check int) "no entries" 0 s.Engine.Cache.entries;
  Alcotest.(check int) "no hits" 0 s.Engine.Cache.hits;
  Alcotest.(check int) "no misses" 0 s.Engine.Cache.misses

(* --------------------------- analysis ------------------------------ *)

let test_analysis_agrees_with_reference () =
  (* Sweep many (S; pi) stacks and demand agreement with a rank check
     and the exact box oracle. *)
  let s = Matmul.paper_s in
  let checked = ref 0 in
  for a = 1 to 4 do
    for b = 1 to 4 do
      for c = -2 to 4 do
        if c <> 0 then begin
          let pi = Intvec.of_ints [ a; b; c ] in
          let t = Intmat.append_row s pi in
          let v = Analysis.check ~mu:mu3 t in
          incr checked;
          Alcotest.(check bool) "full rank agrees" (Intmat.rank t = 2) v.Analysis.full_rank;
          if v.Analysis.full_rank then begin
            Alcotest.(check bool) "verdict agrees with the box oracle"
              (Conflict.is_conflict_free ~mu:mu3 t)
              v.Analysis.conflict_free
          end
        end
      done
    done
  done;
  Alcotest.(check int) "swept the whole family" (4 * 4 * 6) !checked

let test_analysis_witness () =
  (* (1,1,1) over the paper's S collides; the verdict must carry a
     feasible kernel witness. *)
  let t = Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 1; 1 ]) in
  let v = Analysis.check ~mu:mu3 t in
  Alcotest.(check bool) "conflicted" false v.Analysis.conflict_free;
  match v.Analysis.witness with
  | Some g ->
    (* A conflict witness lies inside the box (Theorem 2.2's
       "infeasible" side) and in ker T. *)
    Alcotest.(check bool) "witness inside the box" false (Conflict.is_feasible ~mu:mu3 g);
    Alcotest.(check bool) "witness nonzero" true (not (Intvec.is_zero g))
  | None -> Alcotest.fail "expected a conflict witness"

let test_analysis_rank_deficient () =
  let t = Intmat.of_ints [ [ 1; 1; -1 ]; [ 2; 2; -2 ] ] in
  let v = Analysis.check ~mu:mu3 t in
  Alcotest.(check bool) "not full rank" false v.Analysis.full_rank

let test_analysis_is_conflict_free_wrapper () =
  let free = Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 4; 1 ]) in
  let conflicted = Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 1; 1 ]) in
  Alcotest.(check bool) "free" true (Analysis.is_conflict_free ~mu:mu3 free);
  Alcotest.(check bool) "conflicted" false (Analysis.is_conflict_free ~mu:mu3 conflicted)

(* Bit-level matmul's 2x5 space mapping: T is 3x5, k < n-1, so every
   screen of its search builds a family (and, on a residual instance,
   runs the exact oracle).  At mu_word = mu_bit = 1 its optimal cost is
   11, one past Procedure51.default_max_objective, hence the explicit
   bound. *)
let bitmm = Bit_matmul.algorithm ~mu_word:1 ~mu_bit:1

let bitmm_search pool =
  Search.all_optimal_schedules ~pool ~max_objective:16 bitmm ~s:Bit_matmul.example_s

(* --------------------------- observability ------------------------- *)

(* Sum of [cache.<name>.hits] (resp. [.misses]) over every registered
   cache table. *)
let cache_total snap suffix =
  List.fold_left
    (fun acc (name, v) ->
      if
        String.length name > 6
        && String.sub name 0 6 = "cache."
        && String.ends_with ~suffix name
      then acc + v
      else acc)
    0 snap.Obs.Metrics.counters

let test_metrics_counters () =
  Obs.Metrics.reset ();
  Engine.Cache.clear ();
  (* A search fans out on the pool but feeds no analysis.* counter... *)
  ignore (bitmm_search (Engine.Pool.create ~jobs:2 ()));
  let s = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "pool width observed" true
    (match List.assoc_opt "pool.max_domains" s.Obs.Metrics.gauges with
    | Some w -> w >= 2.
    | None -> false);
  (* ...while Analysis.check does: matmul's S over twelve schedules,
     some free, some not. *)
  List.iter
    (fun pi -> ignore (Analysis.check ~mu:mu3 (Intmat.append_row Matmul.paper_s (Intvec.of_ints pi))))
    (List.init 12 (fun i -> [ 1 + (i mod 4); 1 + (i / 4); 1 ]));
  let s = Obs.Metrics.snapshot () in
  let c name = Obs.Metrics.counter_value s name in
  Alcotest.(check int) "queries counted" 12 (c "analysis.queries");
  Alcotest.(check bool) "some decision path counted" true
    (c "analysis.closed_form" + c "analysis.box_oracle" + c "analysis.lattice_oracle" > 0);
  Alcotest.(check bool) "check latency histogram fed" true
    (match List.assoc_opt "analysis.check_ms" s.Obs.Metrics.histograms with
    | Some h -> h.Obs.Metrics.count >= c "analysis.queries"
    | None -> false);
  (* Counters are monotonic between resets... *)
  ignore (Analysis.check ~mu:mu3 (Intmat.append_row Matmul.paper_s (Intvec.of_ints [ 1; 4; 1 ])));
  let s' = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "monotonic" true
    (Obs.Metrics.counter_value s' "analysis.queries" > c "analysis.queries");
  (* ...and reset zeroes them without unregistering. *)
  Obs.Metrics.reset ();
  let z = Obs.Metrics.snapshot () in
  Alcotest.(check int) "reset queries" 0 (Obs.Metrics.counter_value z "analysis.queries");
  Alcotest.(check int) "reset hits" 0 (cache_total z ".hits");
  Alcotest.(check bool) "registration survives reset" true
    (List.mem_assoc "analysis.queries" z.Obs.Metrics.counters)

let test_metrics_cache_hits_observed () =
  Obs.Metrics.reset ();
  Engine.Cache.clear ();
  (* Search screens without the caches, so both passes go through
     Analysis.check: matmul's S over 24 schedules at mu = 3. *)
  let mu = [| 3; 3; 3 |] in
  let matrices =
    List.init 24 (fun i ->
        Intmat.append_row Matmul.paper_s
          (Intvec.of_ints [ 1 + (i mod 4); 1 + (i / 4 mod 3); 1 + (i / 12) ]))
  in
  let pass () = List.iter (fun t -> ignore (Analysis.check ~mu t)) matrices in
  pass ();
  pass ();
  let s = Obs.Metrics.snapshot () in
  let hits = cache_total s ".hits" and misses = cache_total s ".misses" in
  Alcotest.(check bool) "warm pass hits" true (hits > 0);
  (* The Obs counters must agree with the cache's own accounting. *)
  let stats = Engine.Cache.stats () in
  Alcotest.(check int) "hits agree with Cache.stats" stats.Engine.Cache.hits hits;
  Alcotest.(check int) "misses agree with Cache.stats" stats.Engine.Cache.misses misses

(* A search screens every candidate once, so it leaves the verdict and
   family memo tables untouched and runs no Analysis.check: matmul's
   k = n-1 screens are Theorem 3.1's closed form, bit-level matmul's
   k < n-1 screens build their families uncached. *)
let test_search_skips_caches () =
  Obs.Metrics.reset ();
  Engine.Cache.clear ();
  let alg = Matmul.algorithm ~mu:3 in
  let pool = Engine.Pool.create ~jobs:2 () in
  Alcotest.(check bool) "schedules found" true
    (Search.all_optimal_schedules ~pool alg ~s:Matmul.paper_s <> []);
  Alcotest.(check bool) "front found" true (Search.pareto_front ~pool alg ~k:2 <> []);
  Alcotest.(check int) "closed-form screens skip the cascade" 0
    (Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "analysis.queries");
  Obs.Trace.enable ();
  let winners = Fun.protect ~finally:Obs.Trace.disable (fun () -> bitmm_search pool) in
  let screens =
    List.filter (fun sp -> sp.Obs.Trace.name = "search.screen") (Obs.Trace.spans ())
  in
  Alcotest.(check bool) "bitmm schedules found" true (winners <> []);
  let mu = Index_set.bounds bitmm.Algorithm.index_set in
  Alcotest.(check bool) "bitmm schedules oracle-valid" true
    (List.for_all
       (fun pi -> Reference.oracle_valid ~mu ~k:3 (Intmat.append_row Bit_matmul.example_s pi))
       winners);
  Alcotest.check vec_lists "bitmm schedules at one domain" (to_ints_l winners)
    (to_ints_l (bitmm_search (Engine.Pool.create ~jobs:1 ())));
  let snap = Obs.Metrics.snapshot () in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " lookups") 0
        (Obs.Metrics.counter_value snap ("cache." ^ name ^ ".hits")
        + Obs.Metrics.counter_value snap ("cache." ^ name ^ ".misses")))
    [ "analysis-verdict"; "family" ];
  Alcotest.(check bool) "screens counted as search.screen spans" true (screens <> []);
  Alcotest.(check int) "cascade screens skip Analysis.check" 0
    (Obs.Metrics.counter_value snap "analysis.queries");
  let st = Engine.Cache.stats () in
  Alcotest.(check (list int)) "no lookups, no entries" [ 0; 0; 0 ]
    [ st.Engine.Cache.hits; st.Engine.Cache.misses; st.Engine.Cache.entries ]

(* An MD5 over (conflict_free, full_rank, decided_by, witness) of 4,000
   generated instances, sizes 3 to 6, as Analysis.check decides them. *)
let verdict_digest decide =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun size ->
      for i = 0 to 999 do
        let inst = Check.Gen.ith ~seed:2026 ~size i in
        let v = decide ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat in
        Buffer.add_string buf
          (Printf.sprintf "%b %b %s %s\n" v.Analysis.conflict_free v.Analysis.full_rank
             (Analysis.decided_by_name v.Analysis.decided_by)
             (match v.Analysis.witness with None -> "-" | Some w -> Intvec.to_string w))
      done)
    [ 3; 4; 5; 6 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_verdict_digest () =
  Engine.Cache.clear ();
  let expected = "9ea35b760c2e9dbfb939dfd31ba3ae4d" in
  Alcotest.(check string) "check" expected (verdict_digest (fun ~mu t -> Analysis.check ~mu t))

(* A search runs to its exact answer whatever its deadline: a
   request's [deadline_ms] only decides the daemon's arrival-time
   refusal, so the handler's reply is the same with no deadline, a
   spent one and a distant one, for a k = n-1 schedule list and a
   k < n-1 front alike. *)
let test_search_ignores_budgets () =
  let pool = Engine.Pool.create ~jobs:2 () in
  let reply request = Json.to_string (Json.Obj (Server.Handlers.execute ~pool ~store:None request)) in
  List.iter
    (fun (name, request) ->
      let expected = reply (request None) in
      List.iter
        (fun (what, deadline_ms) ->
          Alcotest.(check string) (name ^ ", " ^ what) expected (reply (request deadline_ms)))
        [ ("spent deadline", Some 0); ("distant deadline", Some 60_000) ])
    [
      ( "matmul schedules",
        fun deadline_ms ->
          Server.Protocol.Search
            { algorithm = "matmul"; mu = 4; s = None; pareto = false; array_dim = 1; deadline_ms } );
      ( "convolution 1-D front",
        fun deadline_ms ->
          Server.Protocol.Search
            { algorithm = "convolution"; mu = 3; s = None; pareto = true; array_dim = 1; deadline_ms } );
    ]

(* The oracle spans open in Conflict's one dispatch, so a k < n-1
   search shows where its oracle time goes: bit-level matmul's residual
   screens run the box oracle, each call under its search.screen
   span. *)
let test_search_traces_oracle () =
  Obs.Trace.enable ();
  ignore (Fun.protect ~finally:Obs.Trace.disable (fun () -> bitmm_search (Engine.Pool.create ~jobs:2 ())));
  let spans = Obs.Trace.spans () in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Obs.Trace.id sp) spans;
  let rec under name = function
    | None -> false
    | Some id -> (
      match Hashtbl.find_opt by_id id with
      | Some sp -> sp.Obs.Trace.name = name || under name sp.Obs.Trace.parent
      | None -> false)
  in
  let boxes = List.filter (fun sp -> sp.Obs.Trace.name = "oracle.box") spans in
  Alcotest.(check bool) "oracle.box spans recorded" true (boxes <> []);
  Alcotest.(check bool) "every oracle.box under a search.screen" true
    (List.for_all (fun sp -> under "search.screen" sp.Obs.Trace.parent) boxes)

let suite =
  [
    Alcotest.test_case "pool preserves order" `Quick test_pool_order;
    Alcotest.test_case "pool edge cases" `Quick test_pool_edge_cases;
    Alcotest.test_case "pool exception" `Quick test_pool_exception;
    Alcotest.test_case "pool reuses helpers" `Quick test_pool_reuses_helpers;
    Alcotest.test_case "pool nested map" `Quick test_pool_nested;
    Alcotest.test_case "pool two threads" `Quick test_pool_two_threads;
    Alcotest.test_case "pool lowest failure" `Quick test_pool_lowest_failure;
    Alcotest.test_case "parallel schedules = sequential" `Quick test_search_schedules_agree;
    Alcotest.test_case "parallel best-by-buffers = sequential" `Quick
      test_search_best_by_buffers_agree;
    Alcotest.test_case "parallel pareto = sequential" `Slow test_search_pareto_agree;
    Alcotest.test_case "search scans once" `Quick test_search_scans_once;
    Alcotest.test_case "search empty under bound" `Quick test_search_empty_under_bound;
    Alcotest.test_case "cache hits" `Quick test_cache_hits;
    Alcotest.test_case "cache clear" `Quick test_cache_clear;
    Alcotest.test_case "analysis agrees with reference" `Quick test_analysis_agrees_with_reference;
    Alcotest.test_case "analysis witness" `Quick test_analysis_witness;
    Alcotest.test_case "analysis rank deficient" `Quick test_analysis_rank_deficient;
    Alcotest.test_case "analysis boolean wrapper" `Quick test_analysis_is_conflict_free_wrapper;
    Alcotest.test_case "engine metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "engine cache metrics" `Quick test_metrics_cache_hits_observed;
    Alcotest.test_case "search skips caches" `Quick test_search_skips_caches;
    Alcotest.test_case "verdict digest" `Quick test_verdict_digest;
    Alcotest.test_case "search ignores budgets" `Quick test_search_ignores_budgets;
    Alcotest.test_case "search traces its oracle calls" `Quick test_search_traces_oracle;
  ]
