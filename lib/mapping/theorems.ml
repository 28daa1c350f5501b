type input = {
  hnf : Hnf.result;
  mu : int array;
}

let make_input ~mu t =
  if Array.length mu <> Intmat.cols t then
    invalid_arg "Theorems.make_input: arity mismatch";
  { hnf = Hnf.compute t; mu }

let dims { hnf; mu } =
  let n = Array.length mu in
  (n, hnf.Hnf.rank)

(* u entry helpers; columns are 0-indexed, so the paper's u_{i,n}
   is [u i (n-1)]. *)
let uget inp i j = Intmat.get inp.hnf.Hnf.u i j

let necessary_cond2 inp =
  let n, k = dims inp in
  let v = inp.hnf.Hnf.v in
  let column_ok j =
    let ok = ref false in
    for i = 0 to k - 1 do
      if not (Zint.is_zero (Intmat.get v i j)) then ok := true
    done;
    !ok
  in
  let all = ref true in
  for j = 0 to n - 1 do
    if not (column_ok j) then all := false
  done;
  !all

(* The closed-form predicates below are evaluated through their
   mu-parametric forms in [Family]: each one builds the symbolic
   piecewise condition (sign guards folded, mu-dependence reduced to
   [mu_i < c] atoms) and evaluates it at this input's concrete bounds.
   One source of truth — [Analysis]'s family cache compiles the same
   conditions once per matrix and replays them across instances. *)

let necessary_cond3 inp = Family.eval_cond (Family.cond3 inp.hnf) ~mu:inp.mu

(* Theorem 4.5: choose n-k rows of U whose kernel-column restriction is
   nonsingular while each chosen row's gcd over the kernel columns is
   >= mu_i + 1. *)
let sufficient_cond4 inp =
  let n, k = dims inp in
  let d = n - k in
  if d = 0 then true
  else
    match Family.cond4 inp.hnf with
    | Some c -> Family.eval_cond c ~mu:inp.mu
    | None ->
      (* Too many subsets for the symbolic form: search concretely,
         where the mu-filter prunes the candidate rows before
         enumeration.  No decision path runs this search; past the cap
         the family is residual and the exact oracle decides. *)
      let row_gcd i =
        let g = ref Zint.zero in
        for c = k to n - 1 do
          g := Zint.gcd !g (uget inp i c)
        done;
        !g
      in
      let candidate_rows =
        List.filter
          (fun i -> Zint.compare (row_gcd i) (Zint.of_int (inp.mu.(i) + 1)) >= 0)
          (List.init n (fun i -> i))
      in
      let rec subsets sz = function
        | [] -> if sz = 0 then [ [] ] else []
        | x :: rest ->
          if sz = 0 then [ [] ]
          else
            List.map (fun s -> x :: s) (subsets (sz - 1) rest) @ subsets sz rest
      in
      List.exists
        (fun rows ->
          let m =
            Intmat.make d d (fun a b -> uget inp (List.nth rows a) (k + b))
          in
          not (Zint.is_zero (Intmat.det m)))
        (subsets d candidate_rows)

let require_codim inp d name =
  let n, k = dims inp in
  if n - k <> d then invalid_arg (name ^ ": wrong codimension")

(* Theorem 4.6 (sufficient, k = n-2). *)
let sufficient_cond5 inp =
  require_codim inp 2 "Theorems.sufficient_cond5";
  Family.eval_cond (Family.cond5 inp.hnf) ~mu:inp.mu

(* Theorem 4.7 (k = n-2): conditions (1) same-sign sum, (2)
   opposite-sign difference, (3) kernel columns feasible. *)
let nec_suff_n_minus_2 inp =
  require_codim inp 2 "Theorems.nec_suff_n_minus_2";
  Family.eval_cond (Family.cond_n_minus_2 inp.hnf) ~mu:inp.mu

(* Theorem 4.8 (k = n-3): for each of the four sign patterns of
   (beta_{n-2}, beta_{n-1}, beta_n) up to global negation there must be
   a row whose kernel entries match the pattern and whose patterned sum
   escapes the box; plus feasibility of the kernel columns. *)
let nec_suff_n_minus_3 inp =
  require_codim inp 3 "Theorems.nec_suff_n_minus_3";
  Family.eval_cond (Family.cond_n_minus_3 inp.hnf) ~mu:inp.mu

let corrected_sufficient_n_minus_3 inp =
  require_codim inp 3 "Theorems.corrected_sufficient_n_minus_3";
  Family.eval_cond (Family.corrected_cond_n_minus_3 inp.hnf) ~mu:inp.mu
