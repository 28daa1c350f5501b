let is_feasible ~mu gamma =
  if Array.length mu <> Intvec.dim gamma then
    invalid_arg "Conflict.is_feasible: arity mismatch";
  let rec from i =
    i < Array.length mu
    && (Zint.compare (Zint.abs gamma.(i)) (Zint.of_int mu.(i)) > 0 || from (i + 1))
  in
  from 0

let kernel_basis t = Hnf.kernel_basis t

(* ------------------------------------------------------------------ *)
(* Exact box oracle.  We search for gamma with |gamma_i| <= mu_i,
   gamma <> 0 and T gamma = 0 by assigning components left to right,
   pruning with interval bounds on the remaining partial sums.  The
   first nonzero component is forced positive (gamma and -gamma are
   equivalent). *)

let to_int_matrix t =
  Array.init (Intmat.rows t) (fun i ->
      Array.init (Intmat.cols t) (fun j -> Zint.to_int (Intmat.get t i j)))

let search_box ~mu t ~emit =
  let rows = to_int_matrix t in
  let k = Array.length rows and n = Array.length mu in
  if n <> Intmat.cols t then invalid_arg "Conflict: arity mismatch";
  (* suffix.(r).(i) = sum over c >= i of |T r c| * mu_c : the maximal
     swing the unassigned components can still contribute to row r. *)
  let suffix =
    Array.init k (fun r ->
        let s = Array.make (n + 1) 0 in
        for i = n - 1 downto 0 do
          s.(i) <- s.(i + 1) + (abs rows.(r).(i) * mu.(i))
        done;
        s)
  in
  let gamma = Array.make n 0 in
  let partial = Array.make k 0 in
  let exception Stop in
  let rec go i ~nonzero_seen =
    if i = n then begin
      if nonzero_seen then
        if emit (Intvec.of_int_array gamma) then raise Stop
    end
    else begin
      let feasible_partial v =
        (* After assigning gamma_i = v, can every row still reach 0? *)
        let ok = ref true in
        for r = 0 to k - 1 do
          let s = partial.(r) + (rows.(r).(i) * v) in
          if abs s > suffix.(r).(i + 1) then ok := false
        done;
        !ok
      in
      let lo = if nonzero_seen then -mu.(i) else 0 in
      for v = lo to mu.(i) do
        if feasible_partial v then begin
          gamma.(i) <- v;
          for r = 0 to k - 1 do
            partial.(r) <- partial.(r) + (rows.(r).(i) * v)
          done;
          go (i + 1) ~nonzero_seen:(nonzero_seen || v <> 0);
          for r = 0 to k - 1 do
            partial.(r) <- partial.(r) - (rows.(r).(i) * v)
          done;
          gamma.(i) <- 0
        end
      done
    end
  in
  try go 0 ~nonzero_seen:false with Stop -> ()

let find_conflict ~mu t =
  let found = ref None in
  search_box ~mu t ~emit:(fun g ->
      found := Some (Intvec.normalize_sign (Intvec.primitive_part g));
      true);
  !found

(* ------------------------------------------------------------------ *)
(* Lattice-based oracle: enumerate coefficients over an LLL-reduced
   kernel basis instead of points of the box. *)

let conflict_in_lattice ~mu basis =
  match basis with
  | [] -> None
  | basis ->
    let basis = Array.of_list (Lll.reduce basis) in
    let d = Array.length basis in
    let n = Array.length mu in
    if Array.exists (fun v -> Intvec.dim v <> n) basis then
      invalid_arg "Conflict.conflict_in_lattice: arity mismatch";
    (* Coefficient bounds: x = (B^T B)^{-1} B^T gamma, so
       |x_i| <= Sigma_j |P_ij| mu_j. *)
    let btb =
      Ratmat.make d d (fun i j -> Qnum.of_zint (Intvec.dot basis.(i) basis.(j)))
    in
    let inv =
      match Ratmat.inverse btb with
      | Some m -> m
      | None -> invalid_arg "Conflict.find_conflict_lattice: dependent kernel basis"
    in
    let p i j =
      let acc = ref Qnum.zero in
      for k = 0 to d - 1 do
        acc := Qnum.add !acc (Qnum.mul inv.(i).(k) (Qnum.of_zint basis.(k).(j)))
      done;
      !acc
    in
    let bound =
      Array.init d (fun i ->
          let acc = ref Qnum.zero in
          for j = 0 to n - 1 do
            acc := Qnum.add !acc (Qnum.mul_zint (Qnum.abs (p i j)) (Zint.of_int mu.(j)))
          done;
          Zint.to_int (Qnum.floor !acc))
    in
    (* Integer rows of the basis for fast accumulation; entries of a
       reduced kernel basis are tiny, so native ints are safe here
       (checked by to_int). *)
    let brow = Array.map (fun v -> Array.map Zint.to_int v) basis in
    (* suffix.(r).(i) = max contribution of coefficients i..d-1 to
       coordinate r. *)
    let suffix =
      Array.init n (fun r ->
          let s = Array.make (d + 1) 0 in
          for i = d - 1 downto 0 do
            s.(i) <- s.(i + 1) + (abs brow.(i).(r) * bound.(i))
          done;
          s)
    in
    let gamma = Array.make n 0 in
    let found = ref None in
    let exception Stop in
    let rec go i ~nonzero =
      if i = d then begin
        if nonzero then begin
          let ok = ref true in
          for r = 0 to n - 1 do
            if abs gamma.(r) > mu.(r) then ok := false
          done;
          if !ok then begin
            found :=
              Some
                (Intvec.normalize_sign
                   (Intvec.primitive_part (Array.map Zint.of_int gamma)));
            raise Stop
          end
        end
      end
      else begin
        let feasible v =
          let ok = ref true in
          for r = 0 to n - 1 do
            let s = gamma.(r) + (brow.(i).(r) * v) in
            if abs s > mu.(r) + suffix.(r).(i + 1) then ok := false
          done;
          !ok
        in
        let lo = if nonzero then -bound.(i) else 0 in
        for v = lo to bound.(i) do
          if feasible v then begin
            for r = 0 to n - 1 do
              gamma.(r) <- gamma.(r) + (brow.(i).(r) * v)
            done;
            go (i + 1) ~nonzero:(nonzero || v <> 0);
            for r = 0 to n - 1 do
              gamma.(r) <- gamma.(r) - (brow.(i).(r) * v)
            done
          end
        done
      end
    in
    (try go 0 ~nonzero:false with Stop -> ());
    !found

let find_conflict_lattice ~mu t =
  if Array.length mu <> Intmat.cols t then invalid_arg "Conflict: arity mismatch";
  conflict_in_lattice ~mu (Hnf.kernel_basis t)

(* Box volume threshold above which the lattice oracle takes over. *)
let box_volume_limit = 2_000_000

let box_is_small mu =
  let volume =
    Array.fold_left
      (fun acc m -> if acc > box_volume_limit then acc else acc * ((2 * m) + 1))
      1 mu
  in
  volume <= box_volume_limit

type oracle_kind = Box | Lattice

let oracle ~mu t =
  if box_is_small mu then (Box, Obs.Trace.with_span "oracle.box" (fun () -> find_conflict ~mu t))
  else (Lattice, Obs.Trace.with_span "oracle.lattice" (fun () -> find_conflict_lattice ~mu t))

let is_conflict_free ~mu t = Option.is_none (snd (oracle ~mu t))

let all_in_box ~mu t =
  let acc = ref [] in
  search_box ~mu t ~emit:(fun g ->
      acc := g :: !acc;
      false);
  List.rev !acc

let conflicting_pairs_oracle iset t =
  let images = Hashtbl.create 1024 in
  Index_set.iter
    (fun j ->
      let img = Array.to_list (Array.map Zint.to_int (Intmat.mul_vec t (Intvec.of_int_array j))) in
      let prev = try Hashtbl.find images img with Not_found -> [] in
      Hashtbl.replace images img (Array.copy j :: prev))
    iset;
  Hashtbl.fold
    (fun _ pts acc ->
      let rec pairs = function
        | [] -> []
        | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
      in
      pairs pts @ acc)
    images []

(* ------------------------------------------------------------------ *)
(* k = n-1 closed form (Section 3). *)

let single_conflict_vector t =
  let n = Intmat.cols t in
  if Intmat.rows t <> n - 1 then
    invalid_arg "Conflict.single_conflict_vector: T must be (n-1) x n";
  (* gamma_i = (-1)^i det(T with column i deleted): the Laplace
     expansion of the singular square matrix [row; T] gives T gamma = 0.
     Each minor is loaded into one scratch matrix and reduced in place. *)
  let m = n - 1 in
  let w = Intmat.zero m m and gamma = Array.make n Zint.zero in
  for i = 0 to n - 1 do
    for r = 0 to m - 1 do
      for c = 0 to m - 1 do
        w.(r).(c) <- Intmat.get t r (if c < i then c else c + 1)
      done
    done;
    let d = Intmat.det_in_place w in
    gamma.(i) <- (if i land 1 = 0 then d else Zint.neg d)
  done;
  (* Primitive and sign-normalized, in place: divide by the content,
     then negate when the first nonzero entry is negative. *)
  let g = Array.fold_left Zint.gcd Zint.zero gamma in
  if Zint.is_zero g then None
  else begin
    let rec first i = if Zint.is_zero gamma.(i) then first (i + 1) else i in
    let g = if Zint.sign gamma.(first 0) < 0 then Zint.neg g else g in
    if not (Zint.is_one g) then
      for i = 0 to n - 1 do
        gamma.(i) <- Zint.divexact gamma.(i) g
      done;
    Some gamma
  end

let f_coefficient_matrix ~s =
  let n = Intmat.cols s in
  if Intmat.rows s <> n - 2 then
    invalid_arg "Conflict.f_coefficient_matrix: S must be (n-2) x n";
  (* Column j of C is the (un-normalized) signed-minor vector of
     [S; e_j]; by multilinearity gamma(pi) = C pi^T. *)
  let column j =
    let t = Intmat.append_row s (Intvec.unit n j) in
    Array.init n (fun i ->
        let d = Intmat.det (Intmat.make (n - 1) (n - 1) (fun r c -> Intmat.get t r (if c < i then c else c + 1))) in
        if i mod 2 = 0 then d else Zint.neg d)
  in
  Intmat.of_cols (List.init n column)
