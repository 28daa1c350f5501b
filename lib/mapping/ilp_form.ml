type branch = {
  description : string;
  problem : Simplex.problem;
}

type solution = {
  pi : Intvec.t;
  objective : int;
  branch : string;
  gamma : Intvec.t;
  integral_vertices : bool;
}

let q_of_z = Qnum.of_zint

let dependence_constraints d =
  let n = Intmat.rows d in
  List.init (Intmat.cols d) (fun i ->
      let col = Intmat.col d i in
      let coeffs = Array.init n (fun j -> q_of_z col.(j)) in
      Lin.ge_int coeffs 1)

let branches (alg : Algorithm.t) ~s =
  let n = Algorithm.dim alg in
  if Intmat.rows s <> n - 2 then
    invalid_arg "Ilp_form.branches: S must be (n-2) x n";
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let c = Conflict.f_coefficient_matrix ~s in
  let deps = dependence_constraints alg.Algorithm.dependences in
  let objective = Array.init n (fun i -> Qnum.of_int mu.(i)) in
  List.concat
    (List.init n (fun i ->
         let row = Array.init n (fun j -> q_of_z (Intmat.get c i j)) in
         let bound = mu.(i) + 1 in
         [
           {
             description = Printf.sprintf "f_%d >= %d" (i + 1) bound;
             problem = Simplex.{ nvars = n; objective; constraints = Lin.ge_int row bound :: deps };
           };
           {
             description = Printf.sprintf "-f_%d >= %d" (i + 1) bound;
             problem =
               Simplex.{ nvars = n; objective; constraints = Lin.ge_int (Lin.neg row) bound :: deps };
           };
         ]))

let optimize_5d_to_2d ?max_objective (alg : Algorithm.t) ~s =
  if not (Prop81.applicable ~s) then
    invalid_arg "Ilp_form.optimize_5d_to_2d: S fails the Prop 8.1 normalization";
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let d = alg.Algorithm.dependences in
  let accept pi =
    Schedule.respects pi d
    && Intmat.rank (Intmat.append_row s pi) = 3
    && Prop81.decide ~mu ~s ~pi
  in
  Procedure51.first_level ?max_objective ~mu (fun cost ->
      List.find_opt accept (Procedure51.candidates_at_cost ~mu cost)
      |> Option.map (fun pi -> (pi, cost + 1)))

let optimize ?(positivity_required = true) (alg : Algorithm.t) ~s =
  let n = Algorithm.dim alg in
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let c = Conflict.f_coefficient_matrix ~s in
  let all_integral = ref true in
  (* Per-branch LP optima give a lower bound on the true objective;
     the vertices illustrate the appendix's integrality observation. *)
  let bounds =
    List.filter_map
      (fun { description; problem } ->
        match Simplex.solve problem with
        | Simplex.Infeasible -> None
        | Simplex.Unbounded ->
          if positivity_required then
            failwith
              ("Ilp_form.optimize: branch '" ^ description
             ^ "' is unbounded; the linear objective premise does not hold")
          else None
        | Simplex.Optimal { obj; _ } ->
          let vertices = Vertex.enumerate ~nvars:n problem.Simplex.constraints in
          if not (Vertex.all_integral vertices) then all_integral := false;
          Some obj)
      (branches alg ~s)
  in
  match bounds with
  | [] -> None
  | first :: rest ->
    let lower = List.fold_left Qnum.min first rest in
    let accept cost pi =
      let t = Intmat.append_row s pi in
      if Intmat.rank t <> n - 1 then None
      else if not (Schedule.respects pi alg.Algorithm.dependences) then None
      else begin
        let gamma = Intvec.normalize_sign (Intvec.primitive_part (Intmat.mul_vec c pi)) in
        if Intvec.is_zero gamma || not (Conflict.is_feasible ~mu gamma) then None
        else begin
          if positivity_required && Array.exists (fun x -> Zint.sign x <= 0) pi then
            failwith "Ilp_form.optimize: solution violates the positivity premise";
          let branch =
            (* Name the binding disjunct for reporting. *)
            let rec find i =
              if i >= n then "interior of the optimal face"
              else
                let fi = Zint.to_int gamma.(i) in
                if abs fi > mu.(i) then
                  Printf.sprintf "%sf_%d >= %d" (if fi > 0 then "" else "-") (i + 1) (mu.(i) + 1)
                else find (i + 1)
            in
            find 0
          in
          Some { pi; objective = cost; branch; gamma; integral_vertices = !all_integral }
        end
      end
    in
    (* Enumerate integer points level by level starting at the LP lower
       bound: the gcd condition the formulation postpones (Section 8)
       can reject every vertex of the optimal face, in which case the
       optimum is an interior lattice point of that face — e.g. matmul
       at odd mu, where Pi = (1, mu-1, 2)-style schedules win. *)
    let from = Zint.to_int (Qnum.ceil lower) in
    let max_objective = Stdlib.max (Procedure51.default_max_objective mu) (from * 4) in
    Procedure51.first_level ~from ~max_objective ~mu (fun cost ->
        List.find_map (accept cost) (Procedure51.candidates_at_cost ~mu cost))
