(** The differential runner: push an instance through every fast path
    the repository offers and report any disagreement with the
    brute-force {!Oracle}.

    The fast paths checked per instance:

    - {!Family.decide} — the uncached cascade (family closed forms,
      exact oracle on residual instances);
    - [Conflict.find_conflict] — the pruned box enumeration (its
      witness, when produced, is also validated against Theorem 2.2);
    - [Conflict.find_conflict_lattice] — the LLL coefficient-lattice
      oracle (witness validated likewise);
    - [Analysis.check] twice — the first call exercises the
      compute path, the second must replay the memoized verdict
      identically (warm vs cold cache);
    - [Analysis.eval_family] on [Analysis.family] — whenever the
      symbolic family verdict for the instance's [T] decides at its
      [mu], the result must byte-match both the oracle and the
      [Analysis.check] verdict (boolean, method, full-rank flag and
      witness — the soundness contract of [docs/FAMILIES.md]); residual
      instances carry no obligation beyond the other paths;
    - {!Family.valid} on every instance — the uncached screen of
      every candidate of [Procedure51], [Space_opt] and both [Search]
      scans (Theorem 3.1's closed form for [k = n-1], one family build
      and the exact oracle otherwise) must equal [rank T = k] and the
      oracle's conflict-freedom;
    - [Exec.run] — the cycle-accurate simulator executes the instance
      under a synthesized causal dependence (the sign vector of the Pi
      row), and the verdict is cross-checked end to end: conflict-free
      per the oracle iff the simulation shows zero computational
      conflicts, plus zero causality violations and matching dataflow
      fingerprints unconditionally.  Skipped only when the Pi row is
      all zeros (no causal dependence exists, and {!Exec.run} rightly
      refuses such schedules).

    {!run} executes the stream in parallel via {!Engine.Pool} and is
    deterministic in the number of worker domains: instances come from
    {!Gen.ith} (per-index seeding) and the pool merges in input order,
    so the same [(seed, size, count)] yields the same report at any
    [jobs] (tested in [test_check.ml]). *)

type path =
  | Family_decide
  | Box_oracle_path
  | Lattice_oracle_path
  | Analysis_path
  | Analysis_cached
  | Family_path
  | Search_screen
  | Exec_simulate

val path_name : path -> string

type disagreement = {
  path : path;
  detail : string;  (** What the fast path claimed, human-readable. *)
}

type failure = {
  index : int;  (** Stream index of the instance ([-1] outside {!run}). *)
  instance : Instance.t;
  shrunk : Instance.t;  (** {!Shrink}-minimized, still disagreeing. *)
  oracle_free : bool;   (** Ground truth for [instance]. *)
  disagreements : disagreement list;
}

type report = {
  seed : int;
  size : int;
  jobs : int;
  checked : int;
  failures : failure list;
}

val check_instance : Instance.t -> disagreement list
(** All fast-path disagreements on one instance; [[]] means every path
    agrees with the oracle (and with itself across the cache). *)

val shrink_failure : ?index:int -> Instance.t -> disagreement list -> failure
(** Minimize a disagreeing instance with
    [Shrink.shrink ~keeps_failing:(fun i -> check_instance i <> [])]. *)

val run : ?jobs:int -> ?seed:int -> ?count:int -> ?size:int -> unit -> report
(** Check [count] (default 200) instances of the [(seed, size)] stream
    (defaults 42 and 3), in parallel over [jobs] domains.  Clears
    {!Engine.Cache} first so the first [Analysis.check] per instance is
    genuinely cold. *)
