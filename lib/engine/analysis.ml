type exactness = Exact | Bounded

type decided_by =
  | Theorem of Family.meth
  | Box_oracle
  | Lattice_oracle
  | Lattice_fallback

type verdict = {
  conflict_free : bool;
  full_rank : bool;
  decided_by : decided_by;
  witness : Intvec.t option;
  timing : float;
  exactness : exactness;
}

let decided_by_name = function
  | Theorem m -> Family.method_name m
  | Box_oracle -> "box-oracle"
  | Lattice_oracle -> "lattice-oracle"
  | Lattice_fallback -> "lattice-fallback"

let m_queries = Obs.Metrics.counter "analysis.queries"
let m_closed_form = Obs.Metrics.counter "analysis.closed_form"
let m_box_oracle = Obs.Metrics.counter "analysis.box_oracle"
let m_budget_degraded = Obs.Metrics.counter "analysis.budget_degraded"
let m_rank_deficient = Obs.Metrics.counter "analysis.rank_deficient_fallthrough"
let h_check_ms = Obs.Metrics.histogram "analysis.check_ms"

(* Rank-deficient mapping matrices have no closed-form answer: every
   such query pays for an exact oracle.  Make that visible once. *)
let note_rank_deficient () =
  Obs.Metrics.incr m_rank_deficient;
  ignore
    (Obs.Warn.once "analysis.rank-deficient-oracle"
       "rank-deficient mapping matrix: no closed-form theorem applies, \
        paying exact-oracle cost (counted in \
        analysis.rank_deficient_fallthrough)")

(* The exact decision for an instance no closed form settles: the box
   oracle while the box is small, else the cached lattice oracle. *)
let oracle ~budget ~mu t =
  Engine.Budget.charge_oracle budget;
  if Conflict.box_is_small mu then begin
    Obs.Metrics.incr m_box_oracle;
    (Box_oracle, Obs.Trace.with_span "oracle.box" (fun () -> Conflict.find_conflict ~mu t))
  end
  else (Lattice_oracle, Engine.Cache.find_conflict_lattice ~mu t)

let verdict_table : (bool * decided_by * Intvec.t option * bool) Engine.Cache.table =
  Engine.Cache.create_table "analysis-verdict"

(* ------------------------- family verdicts ------------------------- *)

(* The closed-form tier: one Family.build per distinct T, then every
   instance in the family costs an O(atoms) condition evaluation.
   Residual instances go to [oracle]. *)

let family_table : Family.t Engine.Cache.table = Engine.Cache.create_table "family"
let m_family_hits = Obs.Metrics.counter "family.hits"
let m_family_misses = Obs.Metrics.counter "family.misses"
let m_family_residual = Obs.Metrics.counter "family.residual"

let family t =
  Engine.Cache.memo family_table t (fun () ->
      Obs.Metrics.incr m_family_misses;
      Family.build t)

let eval_family fam ~mu =
  match Family.eval fam ~mu with
  | Family.Decided { conflict_free; method_; witness } ->
    Some
      {
        conflict_free;
        full_rank = fam.Family.full_rank;
        decided_by = Theorem method_;
        witness;
        timing = 0.;
        exactness = Exact;
      }
  | Family.Residual -> None

let check ?(budget = Engine.Budget.unlimited) ~mu t =
  if Array.length mu <> Intmat.cols t then invalid_arg "Analysis.check: arity mismatch";
  Obs.Metrics.incr m_queries;
  Obs.Trace.with_span "analysis.check" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finish (free, how, wit, rank_ok) exactness =
    let timing = Unix.gettimeofday () -. t0 in
    Obs.Metrics.observe h_check_ms (1000. *. timing);
    {
      conflict_free = free;
      full_rank = rank_ok;
      decided_by = how;
      witness = wit;
      timing;
      exactness;
    }
  in
  if Engine.Budget.pressed budget then begin
    (* Graceful degradation: skip the family cascade and the box
       oracle entirely; one lattice-oracle call (itself cached) settles
       the query, reported as bounded.  Bounded verdicts are never
       written to the verdict cache. *)
    Obs.Metrics.incr m_budget_degraded;
    Engine.Budget.charge_oracle budget;
    let w = Engine.Cache.find_conflict_lattice ~mu t in
    finish (Option.is_none w, Lattice_fallback, w, Intmat.rank t = Intmat.rows t) Bounded
  end
  else
    let key = Intmat.append_row t (Intvec.of_int_array mu) in
    finish
      (Engine.Cache.memo verdict_table key (fun () ->
           let fam = family t in
           match Family.eval fam ~mu with
           | Family.Decided { conflict_free; method_; witness } ->
             Obs.Metrics.incr m_family_hits;
             Obs.Metrics.incr m_closed_form;
             (conflict_free, Theorem method_, witness, fam.Family.full_rank)
           | Family.Residual ->
             Obs.Metrics.incr m_family_residual;
             (match fam.Family.shape with
             | Family.Always_residual -> note_rank_deficient ()
             | _ -> ());
             let how, w = oracle ~budget ~mu t in
             (Option.is_none w, how, w, fam.Family.full_rank)))
      Exact

let is_conflict_free ?budget ~mu t = (check ?budget ~mu t).conflict_free
