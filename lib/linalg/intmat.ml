type t = Zint.t array array

let rows m = Array.length m
let cols m = if rows m = 0 then 0 else Array.length m.(0)
let get m i j = m.(i).(j)
let make r c f = Array.init r (fun i -> Array.init c (fun j -> f i j))

let of_ints ll =
  match ll with
  | [] -> invalid_arg "Intmat.of_ints: empty matrix"
  | first :: _ ->
    let c = List.length first in
    if c = 0 || List.exists (fun r -> List.length r <> c) ll then
      invalid_arg "Intmat.of_ints: ragged or empty rows";
    Array.of_list (List.map (fun r -> Array.of_list (List.map Zint.of_int r)) ll)

let to_ints m =
  Array.to_list (Array.map (fun r -> Array.to_list (Array.map Zint.to_int r)) m)

let row m i = Array.copy m.(i)
let col m j = Array.init (rows m) (fun i -> m.(i).(j))
let identity n = make n n (fun i j -> if i = j then Zint.one else Zint.zero)
let zero r c = make r c (fun _ _ -> Zint.zero)
let transpose m = make (cols m) (rows m) (fun i j -> m.(j).(i))
let copy m = Array.map Array.copy m

let equal a b =
  rows a = rows b && cols a = cols b
  &&
  let ok = ref true in
  for i = 0 to rows a - 1 do
    for j = 0 to cols a - 1 do
      if not (Zint.equal a.(i).(j) b.(i).(j)) then ok := false
    done
  done;
  !ok

let of_rows rs =
  match rs with
  | [] -> invalid_arg "Intmat.of_rows: empty"
  | first :: _ ->
    let c = Intvec.dim first in
    if List.exists (fun r -> Intvec.dim r <> c) rs then
      invalid_arg "Intmat.of_rows: dimension mismatch";
    Array.of_list (List.map Array.copy rs)

let of_cols cs = transpose (of_rows cs)

let append_row m v =
  if Intvec.dim v <> cols m then invalid_arg "Intmat.append_row: dimension mismatch";
  Array.append (copy m) [| Array.copy v |]

let hcat a b =
  if rows a <> rows b then invalid_arg "Intmat.hcat: row mismatch";
  make (rows a) (cols a + cols b) (fun i j ->
      if j < cols a then a.(i).(j) else b.(i).(j - cols a))

let sub_cols m lo len = make (rows m) len (fun i j -> m.(i).(lo + j))

let delete_row_col m i j =
  make (rows m - 1) (cols m - 1) (fun r c ->
      m.(if r < i then r else r + 1).(if c < j then c else c + 1))

let map2 f a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg "Intmat: dimension mismatch";
  make (rows a) (cols a) (fun i j -> f a.(i).(j) b.(i).(j))

let add = map2 Zint.add
let sub = map2 Zint.sub
let neg m = make (rows m) (cols m) (fun i j -> Zint.neg m.(i).(j))
let scale c m = make (rows m) (cols m) (fun i j -> Zint.mul c m.(i).(j))

let mul a b =
  if cols a <> rows b then invalid_arg "Intmat.mul: dimension mismatch";
  make (rows a) (cols b) (fun i j ->
      let acc = ref Zint.zero in
      for k = 0 to cols a - 1 do
        acc := Zint.add !acc (Zint.mul a.(i).(k) b.(k).(j))
      done;
      !acc)

let mul_vec m v =
  if Intvec.dim v <> cols m then invalid_arg "Intmat.mul_vec: dimension mismatch";
  Array.init (rows m) (fun i -> Intvec.dot m.(i) v)

let vec_mul v m =
  if Intvec.dim v <> rows m then invalid_arg "Intmat.vec_mul: dimension mismatch";
  Array.init (cols m) (fun j -> Intvec.dot v (col m j))

(* Fraction-free Bareiss elimination on a working copy.  Returns the
   number of pivots (rank) and, when the matrix is square and has full
   rank, leaves the determinant (up to the tracked sign) in the last
   pivot position. *)
let bareiss work =
  let r = Array.length work and c = if Array.length work = 0 then 0 else Array.length work.(0) in
  let sign = ref 1 in
  let prev = ref Zint.one in
  let pivot_row = ref 0 in
  let pivots = ref 0 in
  let j = ref 0 in
  while !pivot_row < r && !j < c do
    (* Find a pivot in column !j at or below !pivot_row. *)
    let p = ref (-1) in
    for i = !pivot_row to r - 1 do
      if !p < 0 && not (Zint.is_zero work.(i).(!j)) then p := i
    done;
    if !p < 0 then incr j
    else begin
      if !p <> !pivot_row then begin
        let tmp = work.(!p) in
        work.(!p) <- work.(!pivot_row);
        work.(!pivot_row) <- tmp;
        sign := - !sign
      end;
      let piv = work.(!pivot_row).(!j) in
      for i = !pivot_row + 1 to r - 1 do
        for k = !j + 1 to c - 1 do
          let num =
            Zint.sub (Zint.mul piv work.(i).(k)) (Zint.mul work.(i).(!j) work.(!pivot_row).(k))
          in
          work.(i).(k) <- Zint.divexact num !prev
        done;
        work.(i).(!j) <- Zint.zero
      done;
      prev := piv;
      incr pivot_row;
      incr pivots;
      incr j
    end
  done;
  (!pivots, !sign)

let det_in_place work =
  let n = rows work in
  if n <> cols work then invalid_arg "Intmat.det: non-square matrix";
  if n = 0 then Zint.one
  else begin
    let pivots, sign = bareiss work in
    if pivots < n then Zint.zero
    else
      let d = work.(n - 1).(n - 1) in
      if sign < 0 then Zint.neg d else d
  end

let det m = det_in_place (copy m)

let rank m =
  let work = copy m in
  fst (bareiss work)

let minor m i j = det (delete_row_col m i j)

let cofactor m i j =
  let d = minor m i j in
  if (i + j) mod 2 = 0 then d else Zint.neg d

(* adj(M)_{ji} = cofactor_{ij}, i.e. the transpose of the cofactor matrix. *)
let adjugate m =
  let n = rows m in
  if n <> cols m then invalid_arg "Intmat.adjugate: non-square matrix";
  if n = 0 then m
  else if n = 1 then identity 1
  else make n n (fun i j -> cofactor m j i)

let is_unimodular m =
  rows m = cols m
  &&
  let d = det m in
  Zint.is_one d || Zint.equal d Zint.minus_one

let pp fmt m =
  let widths =
    Array.init (cols m) (fun j ->
        let w = ref 0 in
        for i = 0 to rows m - 1 do
          w := Stdlib.max !w (String.length (Zint.to_string m.(i).(j)))
        done;
        !w)
  in
  for i = 0 to rows m - 1 do
    Format.pp_print_string fmt (if i = 0 then "[" else " ");
    Format.pp_print_string fmt "[";
    for j = 0 to cols m - 1 do
      if j > 0 then Format.pp_print_string fmt " ";
      Format.fprintf fmt "%*s" widths.(j) (Zint.to_string m.(i).(j))
    done;
    Format.pp_print_string fmt "]";
    if i = rows m - 1 then Format.pp_print_string fmt "]"
    else Format.pp_print_cut fmt ()
  done

let to_string m = Format.asprintf "@[<v>%a@]" pp m
