type t = { s : Intmat.t; pi : Intvec.t }

let make ~s ~pi =
  if Intmat.cols s <> Intvec.dim pi then
    invalid_arg "Tmap.make: S and Pi disagree on the algorithm dimension";
  { s; pi }

let of_rows rows =
  match List.rev rows with
  | [] | [ _ ] -> invalid_arg "Tmap.of_rows: need at least two rows"
  | pi :: srows_rev ->
    make
      ~s:(Intmat.of_ints (List.rev srows_rev))
      ~pi:(Intvec.of_ints pi)

let matrix t = Intmat.append_row t.s t.pi
let n t = Intmat.cols t.s
let k t = Intmat.rows t.s + 1

let space_of t j =
  if Array.length j <> n t then invalid_arg "Tmap.space_of: arity mismatch";
  Array.init (Intmat.rows t.s) (fun r ->
      let acc = ref 0 in
      Array.iteri (fun c x -> acc := !acc + (Zint.to_int (Intmat.get t.s r c) * x)) j;
      !acc)

let time_of t j = Schedule.time_of t.pi j

let has_full_rank t = Intmat.rank (matrix t) = k t

(* Lexicographic order of the [rows]-long points at offsets [i] of [a]
   and [j] of [b]. *)
let rec compare_at rows a i b j r =
  if r = rows then 0
  else
    let c = Int.compare a.(i + r) b.(j + r) in
    if c <> 0 then c else compare_at rows a i b j (r + 1)

(* The sorted union of two sorted, duplicate-free flat point arrays. *)
let merge rows a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and o = ref 0 in
  let take src k =
    Array.blit src !k out !o rows;
    k := !k + rows;
    o := !o + rows
  in
  while !i < la || !j < lb do
    if !i = la then take b j
    else if !j = lb then take a i
    else
      let c = compare_at rows a !i b !j 0 in
      if c < 0 then take a i
      else if c > 0 then take b j
      else begin
        take a i;
        j := !j + rows
      end
  done;
  Array.sub out 0 !o

(* S J is the Minkowski sum of the segments {0..mu_c} S_c over the
   columns S_c of S.  Add one column at a time: shifting the sorted
   running set by step * S_c keeps it sorted, so each step is a merge.
   The set before column c is the image of a face of J, so the work is
   at most sum_c 2 mu_c |S J| points, and nothing is sized by the
   coordinates' range. *)
let processors t iset =
  let mu = Index_set.bounds iset in
  if Array.length mu <> n t then invalid_arg "Tmap.processors: arity mismatch";
  let rows = Intmat.rows t.s in
  (* Point p of the running set sits at [p * rows, (p + 1) * rows). *)
  let pes = ref (Array.make rows 0) in
  Array.iteri
    (fun c mu_c ->
      let col = Array.init rows (fun r -> Zint.to_int (Intmat.get t.s r c)) in
      if Array.exists (fun x -> x <> 0) col then begin
        let face = !pes in
        for step = 1 to mu_c do
          pes := merge rows !pes (Array.mapi (fun i x -> x + (step * col.(i mod rows))) face)
        done
      end)
    mu;
  List.init (Array.length !pes / rows) (fun p -> Array.sub !pes (p * rows) rows)

type routing = {
  k_matrix : Intmat.t;
  hops : int array;
  buffers : int array;
}

let nearest_neighbor_primitives dim =
  if dim = 0 then Intmat.zero 0 0
  else
    Intmat.make dim (2 * dim) (fun i j ->
        if j = 2 * i then Zint.one
        else if j = (2 * i) + 1 then Zint.minus_one
        else Zint.zero)

(* Route one dependence: find non-negative integral [kcol] minimizing
   total hops subject to [P kcol = sd] and [Σ kcol <= slack]. *)
let route_column p sd slack =
  let r = Intmat.cols p in
  if r = 0 then
    (* 0-dimensional array (k = 1): every dependence stays in place. *)
    if Array.for_all Zint.is_zero sd then Some [||] else None
  else begin
    let rows = Intmat.rows p in
    let ones = Array.make r Qnum.one in
    let eqs =
      List.init rows (fun i ->
          let coeffs = Array.init r (fun j -> Qnum.of_zint (Intmat.get p i j)) in
          Lin.(coeffs =. Qnum.of_zint sd.(i)))
    in
    let nonneg = List.init r (fun j -> Lin.(ge_int (var r j) 0)) in
    let budget = Lin.(ones <=. Qnum.of_int slack) in
    let problem =
      Simplex.{ nvars = r; objective = ones; constraints = (budget :: eqs) @ nonneg }
    in
    match Ilp.solve problem with
    | Ilp.Optimal { x; _ } -> Some x
    | Ilp.Infeasible -> None
    | Ilp.Unbounded -> assert false (* objective is a sum of nonnegative vars *)
  end

(* The 1-norm of each of the [m] columns of the [rows]-row [sd]. *)
let column_norms sd rows m =
  Array.init m (fun i ->
      let acc = ref 0 in
      for r = 0 to rows - 1 do
        acc := !acc + abs (Zint.to_int (Intmat.get sd r i))
      done;
      !acc)

let nearest_neighbor_hops ~s ~d = column_norms (Intmat.mul s d) (Intmat.rows s) (Intmat.cols d)

(* With the nearest-neighbour primitives, P k = S d_i reads
   k_2r - k_2r+1 = (S d_i)_r in each array dimension r, so the fewest
   hops take k_2r = max ((S d_i)_r, 0) and k_2r+1 = max (-(S d_i)_r, 0):
   ||S d_i||_1 hops, the unique optimum of [route_column]'s ILP. *)
let nearest_neighbor_routing t ~d ~slack =
  let sd = Intmat.mul t.s d in
  let hops = column_norms sd (Intmat.rows t.s) (Intmat.cols d) in
  if Array.exists2 ( > ) hops slack then None
  else begin
    let k_matrix =
      Intmat.make (2 * Intmat.rows t.s) (Intmat.cols d) (fun j i ->
          let x = Intmat.get sd (j / 2) i in
          Zint.max Zint.zero (if j land 1 = 0 then x else Zint.neg x))
    in
    Some { k_matrix; hops; buffers = Array.map2 ( - ) slack hops }
  end

let find_routing ?p t ~d =
  let m = Intmat.cols d in
  let slack = Array.init m (fun i -> Zint.to_int (Intvec.dot t.pi (Intmat.col d i))) in
  match p with
  | None -> nearest_neighbor_routing t ~d ~slack
  | Some p ->
    if Intmat.rows p <> k t - 1 then invalid_arg "Tmap.find_routing: P has wrong height";
    let sd = Intmat.mul t.s d in
    let cols = List.init m (fun i -> route_column p (Intmat.col sd i) slack.(i)) in
    if List.exists (fun c -> c = None) cols then None
    else begin
      let kcols = List.map Option.get cols in
      let k_matrix = if Intmat.cols p = 0 then Intmat.zero 0 m else Intmat.of_cols kcols in
      let hops =
        Array.of_list
          (List.map (fun c -> Array.fold_left (fun a x -> a + Zint.to_int x) 0 c) kcols)
      in
      Some { k_matrix; hops; buffers = Array.init m (fun i -> slack.(i) - hops.(i)) }
    end
