type decided_by =
  | Theorem of Family.meth
  | Box_oracle
  | Lattice_oracle

type verdict = {
  conflict_free : bool;
  full_rank : bool;
  decided_by : decided_by;
  witness : Intvec.t option;
  timing : float;
}

let decided_by_name = function
  | Theorem m -> Family.method_name m
  | Box_oracle -> "box-oracle"
  | Lattice_oracle -> "lattice-oracle"

let m_queries = Obs.Metrics.counter "analysis.queries"
let m_closed_form = Obs.Metrics.counter "analysis.closed_form"
let m_box_oracle = Obs.Metrics.counter "analysis.box_oracle"
let m_lattice_oracle = Obs.Metrics.counter "analysis.lattice_oracle"
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

(* The exact decision for an instance no closed form settles:
   [Conflict]'s dispatch, counted per oracle. *)
let oracle ~mu t =
  match Conflict.oracle ~mu t with
  | Conflict.Box, w ->
    Obs.Metrics.incr m_box_oracle;
    (Box_oracle, w)
  | Conflict.Lattice, w ->
    Obs.Metrics.incr m_lattice_oracle;
    (Lattice_oracle, w)

(* [T] with [mu] stacked as an extra row: rows 0..k-1 recover T, the
   last row recovers mu, so distinct (T, mu) pairs never collide. *)
let instance_key ~mu t = Intmat.append_row t (Intvec.of_int_array mu)

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
      }
  | Family.Residual -> None

(* The one conflict-freedom cascade, behind the verdict and family memo
   tables. *)
let check ~mu t =
  if Array.length mu <> Intmat.cols t then invalid_arg "Analysis.check: arity mismatch";
  Obs.Metrics.incr m_queries;
  Obs.Trace.with_span "analysis.check" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let conflict_free, decided_by, witness, full_rank =
    Engine.Cache.memo verdict_table (instance_key ~mu t) (fun () ->
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
          let how, w = oracle ~mu t in
          (Option.is_none w, how, w, fam.Family.full_rank))
  in
  let timing = Unix.gettimeofday () -. t0 in
  Obs.Metrics.observe h_check_ms (1000. *. timing);
  { conflict_free; full_rank; decided_by; witness; timing }

let is_conflict_free ~mu t = (check ~mu t).conflict_free
