let algorithm ~mu =
  Algorithm.make ~name:"lu-decomposition"
    ~index_set:(Index_set.cube ~n:3 ~mu)
    ~dependences:
      [
        [ 1; 0; 0 ];  (* element update from the previous elimination step *)
        [ 0; 1; 0 ];  (* pivot-row value sweeping down the rows *)
        [ 0; 0; 1 ];  (* pivot-column value sweeping across the columns *)
        [ 1; 1; 0 ];  (* multiplier l(k; i) reused on the next step's row *)
        [ 1; 0; 1 ];  (* pivot-row element u(k; j) reused likewise *)
      ]

let example_s = Intmat.of_ints [ [ 1; 0; 0 ] ]

let executable_algorithm ~mu =
  Algorithm.make ~name:"lu-executable"
    ~index_set:(Index_set.cube ~n:3 ~mu)
    ~dependences:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ]

type value = { a : Qnum.t; u : Qnum.t; l : Qnum.t }

(* Point (k, i, j): [a] is the matrix entry (i, j) entering step k
   (i.e. after k-1 elimination steps), delivered along d_1; at the
   pivot row i = k it becomes the traveling u(k, j); at the pivot
   column j = k rows i > k compute their multiplier l(i, k) = a / u;
   interior points i, j > k update a <- a - l u. *)
let semantics ~a:matrix =
  let zero = { a = Qnum.zero; u = Qnum.zero; l = Qnum.zero } in
  {
    Algorithm.boundary =
      (fun j i ->
        match i with
        | 0 -> { zero with a = matrix.(j.(1)).(j.(2)) }
        | 1 | 2 -> zero
        | _ -> invalid_arg "Lu.semantics: bad dependence index");
    compute =
      (fun p ops ->
        let k = p.(0) and i = p.(1) and j = p.(2) in
        let a_in = ops.(0).a in
        let u = if i = k then a_in else ops.(1).u in
        let l =
          if j = k then
            if i > k then Qnum.div a_in u else Qnum.zero
          else ops.(2).l
        in
        let a = if i > k && j > k then Qnum.sub a_in (Qnum.mul l u) else a_in in
        { a; u; l });
    equal_value = (fun x y -> Qnum.equal x.a y.a && Qnum.equal x.u y.u && Qnum.equal x.l y.l);
    pp_value = (fun fmt v -> Format.fprintf fmt "{a=%a}" Qnum.pp v.a);
    lowered = None;
  }

let factors_of_values ~mu value =
  let n = mu + 1 in
  let l =
    Array.init n (fun i ->
        Array.init n (fun k ->
            if i = k then Qnum.one
            else if i > k then (value [| k; i; k |]).l
            else Qnum.zero))
  in
  let u =
    Array.init n (fun k ->
        Array.init n (fun j -> if j >= k then (value [| k; k; j |]).u else Qnum.zero))
  in
  (l, u)

let matmul_q a b =
  let n = Array.length a in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref Qnum.zero in
          for k = 0 to n - 1 do
            acc := Qnum.add !acc (Qnum.mul a.(i).(k) b.(k).(j))
          done;
          !acc))

let random_dominant_matrix ~rng n =
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then Qnum.of_int ((10 * n) + Random.State.int rng 5)
          else Qnum.of_int (Random.State.int rng 9 - 4)))
