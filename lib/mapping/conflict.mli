(** Conflict vectors and conflict-freedom (Definition 2.3, Theorems 2.2
    and 3.1).

    A conflict vector of [T] is an integral [gamma ≠ 0] with
    [T gamma = 0] and relatively prime entries.  On a constant-bounded
    index set with bounds [mu], [T] is conflict-free iff no nonzero
    integral vector of its kernel fits inside the box
    [|gamma_i| <= mu_i] (Theorem 2.2) — the {e box oracle} here decides
    exactly that by pruned enumeration and serves as ground truth for
    every closed-form condition in {!Theorems}.  The box and lattice
    oracles also decide every instance that {!Family.eval} leaves
    residual. *)

val is_feasible : mu:int array -> Intvec.t -> bool
(** Theorem 2.2, per-vector: [gamma] is a feasible conflict vector iff
    some [|gamma_i| > mu_i]. *)

val kernel_basis : Intmat.t -> Intvec.t list
(** The [n - rank] linearly independent conflict vectors given by the
    last columns of the Hermite multiplier (Theorem 4.2(3)); each is
    primitive. *)

val find_conflict : mu:int array -> Intmat.t -> Intvec.t option
(** Exact oracle: a nonzero kernel vector inside the box
    [|gamma_i| <= mu_i], primitive and sign-normalized, or [None] when
    the mapping is conflict-free.  Backtracking enumeration with
    interval pruning on the partial products [T gamma].  This is the
    box oracle [Analysis.check] (library [engine]) runs on residual
    instances whose box {!box_is_small}. *)

val box_is_small : int array -> bool
(** Whether the box [|gamma_i| <= mu_i] has at most 2,000,000 points,
    the volume up to which {!find_conflict} is the affordable exact
    oracle; past it, {!find_conflict_lattice} is. *)

val is_conflict_free : mu:int array -> Intmat.t -> bool
(** Decides with {!find_conflict} when the box {!box_is_small} and with
    {!find_conflict_lattice} otherwise, so it stays exact {e and}
    affordable at large [mu]. *)

val conflict_in_lattice : mu:int array -> Intvec.t list -> Intvec.t option
(** [conflict_in_lattice ~mu basis] is the lattice oracle on an
    explicit basis of linearly independent integer vectors: a nonzero
    integral combination fitting the box, or [None].  Used with the
    Hermite kernel basis by {!find_conflict_lattice} and with the
    Proposition 8.1 closed-form generators by [Prop81.decide]. *)

val find_conflict_lattice : mu:int array -> Intmat.t -> Intvec.t option
(** Exact oracle that scales to large bounds: instead of enumerating
    the box (O((2 mu + 1)^n) points), enumerate integer coefficient
    vectors over an LLL-reduced basis of [ker T] — the search space is
    the rank-(n-k) coefficient lattice with bounds derived from the
    pseudo-inverse of the basis, essentially independent of [n].
    Agrees with {!find_conflict} on whether a conflict exists (the
    witnesses may differ); property-tested. *)

val conflicting_pairs_oracle :
  Index_set.t -> Intmat.t -> (int array * int array) list
(** Definition 2.2 condition 3 checked literally: all unordered pairs
    [j1 <> j2 ∈ J] with [T j1 = T j2].  Quadratic in [|J|]; tests
    only. *)

val all_in_box : mu:int array -> Intmat.t -> Intvec.t list
(** Every nonzero kernel vector inside the box, sign-normalized (first
    nonzero entry positive); used for Figure-1-style reports. *)

(** {1 The k = n-1 closed form (Section 3)} *)

val single_conflict_vector : Intmat.t -> Intvec.t option
(** Theorem 3.1: for [T ∈ Z^{(n-1)×n}] with [rank T = n-1], the unique
    conflict vector whose first nonzero entry is positive, via the
    signed maximal minors of [T] (Equation 3.2 up to the scalar
    [lambda]).  [None] when [rank T < n-1]. *)

val f_coefficient_matrix : s:Intmat.t -> Intmat.t
(** Proposition 3.2 made explicit: the n×n integer matrix [C] such that
    the conflict vector of [T = [S; Pi]] is
    [gamma = lambda * C pi^T] — i.e. [f_i(pi) = Σ_j C_ij pi_j].
    [S] must be (n-2)×n. *)
