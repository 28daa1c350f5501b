type path =
  | Family_decide
  | Box_oracle_path
  | Lattice_oracle_path
  | Analysis_path
  | Analysis_cached
  | Budget_degraded
  | Family_path
  | Exec_simulate

let path_name = function
  | Family_decide -> "family-decide"
  | Box_oracle_path -> "box-oracle"
  | Lattice_oracle_path -> "lattice-oracle"
  | Analysis_path -> "analysis"
  | Analysis_cached -> "analysis-cached"
  | Budget_degraded -> "budget-degraded"
  | Family_path -> "family"
  | Exec_simulate -> "exec-simulate"

type disagreement = {
  path : path;
  detail : string;
}

type failure = {
  index : int;
  instance : Instance.t;
  shrunk : Instance.t;
  oracle_free : bool;
  disagreements : disagreement list;
}

type report = {
  seed : int;
  size : int;
  jobs : int;
  checked : int;
  failures : failure list;
}

(* A finder returning a witness option must say None exactly on free
   instances, and any witness it does produce must be a genuine
   conflict (nonzero kernel vector inside the box). *)
let check_finder inst ~oracle_free ~add path = function
  | Some w ->
    if oracle_free then
      add path (Printf.sprintf "claims conflict %s on a conflict-free instance" (Intvec.to_string w))
    else if not (Oracle.valid_witness inst w) then
      add path (Printf.sprintf "invalid witness %s" (Intvec.to_string w))
  | None ->
    if not oracle_free then add path "claims conflict-free on a conflicting instance"

let check_instance inst =
  Obs.Trace.with_span "check.instance" @@ fun () ->
  let mu = inst.Instance.mu and t = inst.Instance.tmat in
  let oracle_free = Oracle.is_conflict_free inst in
  let out = ref [] in
  let add path detail = out := { path; detail } :: !out in
  (* 1. The uncached cascade. *)
  let decide_free = Family.decide ~mu t in
  if decide_free <> oracle_free then
    add Family_decide
      (Printf.sprintf "decide says %b but oracle says %b" decide_free oracle_free);
  (* 2. The pruned box enumeration, witness validated. *)
  check_finder inst ~oracle_free ~add Box_oracle_path (Conflict.find_conflict ~mu t);
  (* 3. The LLL coefficient-lattice oracle, witness validated. *)
  check_finder inst ~oracle_free ~add Lattice_oracle_path
    (Conflict.find_conflict_lattice ~mu t);
  (* 4. The unified engine entry point: compute path, then memoized
     replay, which must be verbatim identical. *)
  let v1 = Analysis.check ~mu t in
  if v1.Analysis.conflict_free <> oracle_free then
    add Analysis_path
      (Printf.sprintf "check says %b (decided by %s) but oracle says %b"
         v1.Analysis.conflict_free
         (Analysis.decided_by_name v1.Analysis.decided_by)
         oracle_free);
  if v1.Analysis.exactness <> Analysis.Exact then
    add Analysis_path "unlimited budget reported a bounded verdict";
  if v1.Analysis.full_rank <> (Intmat.rank t = Intmat.rows t) then
    add Analysis_path "full_rank flag disagrees with Intmat.rank";
  (match v1.Analysis.witness with
  | Some w when not (Oracle.valid_witness inst w) ->
    add Analysis_path (Printf.sprintf "invalid witness %s" (Intvec.to_string w))
  | _ -> ());
  let v2 = Analysis.check ~mu t in
  if
    v2.Analysis.conflict_free <> v1.Analysis.conflict_free
    || v2.Analysis.full_rank <> v1.Analysis.full_rank
    || not (Option.equal Intvec.equal v2.Analysis.witness v1.Analysis.witness)
  then add Analysis_cached "warm-cache verdict differs from the cold one";
  (* 5. Degradation: a pressed budget must answer bounded — and the
     lattice fallback it switches to is still exact in substance, so
     the boolean must also match the oracle. *)
  let vb =
    Analysis.check ~budget:(Engine.Budget.make ~max_oracle_calls:0 ()) ~mu t
  in
  if vb.Analysis.exactness <> Analysis.Bounded then
    add Budget_degraded "pressed budget reported an exact verdict";
  if vb.Analysis.conflict_free <> oracle_free then
    add Budget_degraded
      (Printf.sprintf "degraded verdict %b but oracle says %b" vb.Analysis.conflict_free
         oracle_free);
  (match vb.Analysis.witness with
  | Some w when not (Oracle.valid_witness inst w) ->
    add Budget_degraded (Printf.sprintf "invalid witness %s" (Intvec.to_string w))
  | _ -> ());
  (* 6. The memoized family tier: whenever the family verdict for this
     T decides the instance, it must byte-match both the oracle and
     the verdict v1 — boolean, method, full-rank flag and witness (the
     soundness contract of docs/FAMILIES.md).  Residual instances carry
     no obligation here; paths 1-5 already cover them. *)
  (match Analysis.eval_family (Analysis.family t) ~mu with
  | None -> ()
  | Some fv ->
    if fv.Analysis.conflict_free <> oracle_free then
      add Family_path
        (Printf.sprintf "family verdict %b (decided by %s) but oracle says %b"
           fv.Analysis.conflict_free
           (Analysis.decided_by_name fv.Analysis.decided_by)
           oracle_free);
    if
      fv.Analysis.conflict_free <> v1.Analysis.conflict_free
      || fv.Analysis.full_rank <> v1.Analysis.full_rank
      || fv.Analysis.decided_by <> v1.Analysis.decided_by
      || not (Option.equal Intvec.equal fv.Analysis.witness v1.Analysis.witness)
    then
      add Family_path
        (Printf.sprintf "family verdict (decided by %s) differs from check (%s)"
           (Analysis.decided_by_name fv.Analysis.decided_by)
           (Analysis.decided_by_name v1.Analysis.decided_by));
    if fv.Analysis.exactness <> Analysis.Exact then
      add Family_path "family verdict reported as bounded";
    (match fv.Analysis.witness with
    | Some w when not (Oracle.valid_witness inst w) ->
      add Family_path (Printf.sprintf "invalid witness %s" (Intvec.to_string w))
    | _ -> ()));
  (* 7. Close the loop on execution: run the instance through the
     cycle-accurate simulator.  Conflicts there are pairs of points
     with [T j1 = T j2], i.e. exactly the oracle's notion, so a
     conflict-free verdict must mean a conflict-free (and causal)
     simulated run.  Any lexicographically positive dependence works
     for the simulation; we synthesize the cheapest one the schedule
     respects — the sign vector of the Pi row — and, for 1-row T,
     pad S with a zero row (which maps every point to PE 0 and so
     changes neither the conflict set nor the verdict). *)
  let k = Intmat.rows t and n = Intmat.cols t in
  let pi = Intmat.row t (k - 1) in
  if not (Intvec.is_zero pi) then begin
    let d = List.init n (fun i -> Zint.sign (Intvec.get pi i)) in
    let alg =
      Algorithm.make ~name:"fuzz-exec" ~index_set:(Index_set.make mu)
        ~dependences:[ d ]
    in
    let s =
      if k = 1 then Intmat.zero 1 n
      else Intmat.of_rows (List.init (k - 1) (Intmat.row t))
    in
    let r = Exec.run alg Dataflow.semantics (Tmap.make ~s ~pi) in
    if (r.Exec.conflicts = []) <> oracle_free then
      add Exec_simulate
        (Printf.sprintf "simulation found %d conflicts but oracle says free = %b"
           (List.length r.Exec.conflicts) oracle_free);
    if r.Exec.causality_violations <> [] then
      add Exec_simulate
        (Printf.sprintf "%d causality violations under a respected schedule"
           (List.length r.Exec.causality_violations));
    if not (Exec.values_agree r) then
      add Exec_simulate "simulated dataflow fingerprints disagree with the reference"
  end;
  List.rev !out

let shrink_failure ?(index = -1) inst disagreements =
  let keeps_failing candidate = check_instance candidate <> [] in
  let shrunk = Shrink.shrink ~keeps_failing inst in
  {
    index;
    instance = inst;
    shrunk;
    oracle_free = Oracle.is_conflict_free inst;
    disagreements;
  }

let run ?jobs ?(seed = 42) ?(count = 200) ?(size = 3) () =
  Obs.Trace.with_span "check.diff.run" @@ fun () ->
  let pool = Engine.Pool.create ?jobs () in
  Engine.Cache.clear ();
  let suspects =
    Engine.Pool.map pool
      (fun index ->
        let inst = Gen.ith ~seed ~size index in
        match check_instance inst with
        | [] -> None
        | disagreements -> Some (index, inst, disagreements))
      (List.init count Fun.id)
  in
  (* Shrinking is rare (a failure means a real bug) and deliberately
     sequential: check_instance goes through the shared caches, and a
     deterministic pass keeps the corpus cases reproducible. *)
  let failures =
    List.filter_map
      (Option.map (fun (index, inst, ds) -> shrink_failure ~index inst ds))
      suspects
  in
  { seed; size; jobs = Engine.Pool.jobs pool; checked = count; failures }
