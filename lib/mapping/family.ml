(* Symbolic, mu-parametric conflict-freedom: analyze the mapping matrix
   once, serve every index-set size.

   Every mu-dependence in the closed forms of Theorems 3.1 and 4.4-4.8
   reduces to atoms of one shape, [mu_i < c] with a constant c computed
   from the Hermite multiplier: escape conditions [|v| > mu_i] are
   [mu_i < |v|] and gcd conditions [g >= mu_i + 1] are [mu_i < g].
   Sign guards (e.g. [sign (a*b) >= 0]) do not mention mu at all and
   fold away at build time.  What remains is a piecewise predicate over
   mu — conjunctions and disjunctions of interval bounds — evaluated
   per instance in O(atoms) integer comparisons, no HNF, no oracle. *)

type cond =
  | True
  | False
  | Lt of int * Zint.t  (* mu_i < c, strict; c > 0 by construction *)
  | All of cond list
  | Any of cond list

let rec eval_cond c ~mu =
  match c with
  | True -> true
  | False -> false
  | Lt (i, c) -> Zint.compare (Zint.of_int mu.(i)) c < 0
  | All cs -> List.for_all (fun c -> eval_cond c ~mu) cs
  | Any cs -> List.exists (fun c -> eval_cond c ~mu) cs

(* Smart constructors keep the stored conditions in simplified form:
   no empty or singleton junctions, no nested same-kind junctions, no
   trivially decided atoms.  [mu_i < c] with c <= 0 is False because
   index-set bounds are non-negative (mu_i >= 1 everywhere else in the
   system, enforced by Instance.make and the wire decoder). *)
let atom i c = if Zint.sign c <= 0 then False else Lt (i, c)
let is_true = function True -> true | _ -> false
let is_false = function False -> true | _ -> false

let all_ cs =
  let cs = List.concat_map (function True -> [] | All xs -> xs | c -> [ c ]) cs in
  if List.exists is_false cs then False
  else match cs with [] -> True | [ c ] -> c | cs -> All cs

let any_ cs =
  let cs = List.concat_map (function False -> [] | Any xs -> xs | c -> [ c ]) cs in
  if List.exists is_true cs then True
  else match cs with [] -> False | [ c ] -> c | cs -> Any cs

(* Theorem 2.2 per vector: gamma escapes the box iff some |gamma_i|
   exceeds mu_i. *)
let escape_cond gamma =
  any_ (List.init (Array.length gamma) (fun i -> atom i (Zint.abs gamma.(i))))

(* ------------------ parametric theorem conditions ------------------ *)

(* All builders read the Hermite multiplier U of T; its kernel columns
   are columns rank .. n-1 (Theorem 4.2(3)). *)
let udims (h : Hnf.result) = (Intmat.rows h.Hnf.u, h.Hnf.rank)
let uget (h : Hnf.result) i j = Intmat.get h.Hnf.u i j

let kernel_columns h =
  let n, rank = udims h in
  List.init (n - rank) (fun c -> Intmat.col h.Hnf.u (rank + c))

(* Theorem 4.4: every kernel column escapes the box. *)
let cond3 h = all_ (List.map escape_cond (kernel_columns h))

(* Theorem 4.6 (k = n-2): some row i has gcd past its bound while the
   coprime direction it leaves uncovered escapes through another row. *)
let cond5 h =
  let n, k = udims h in
  let c1 = k and c2 = k + 1 in
  any_
    (List.init n (fun i ->
         let a = uget h i c1 and b = uget h i c2 in
         let g = Zint.gcd a b in
         if Zint.is_zero g then False
         else begin
           let b1 = Zint.divexact b g and b2 = Zint.neg (Zint.divexact a g) in
           let escapes =
             List.init n (fun j ->
                 if j = i then False
                 else
                   atom j
                     (Zint.abs
                        (Zint.add (Zint.mul b1 (uget h j c1)) (Zint.mul b2 (uget h j c2)))))
           in
           all_ [ atom i g; any_ escapes ]
         end))

let sign_match x s = Zint.sign x * s >= 0

(* Theorem 4.7 (k = n-2): same-sign sums and opposite-sign differences
   escape, kernel columns feasible.  The sign guards select which rows
   contribute an atom; the atoms carry |a+b| and |a-b|. *)
let cond_n_minus_2 h =
  let n, k = udims h in
  let c1 = k and c2 = k + 1 in
  let cond1 =
    any_
      (List.init n (fun i ->
           let a = uget h i c1 and b = uget h i c2 in
           if Zint.sign (Zint.mul a b) >= 0 then atom i (Zint.abs (Zint.add a b))
           else False))
  in
  let cond2 =
    any_
      (List.init n (fun j ->
           let a = uget h j c1 and b = uget h j c2 in
           if Zint.sign (Zint.mul a b) <= 0 then atom j (Zint.abs (Zint.sub a b))
           else False))
  in
  all_ [ cond1; cond2; cond3 h ]

let patterns_n_minus_3 =
  [ [| 1; 1; 1 |]; [| 1; 1; -1 |]; [| 1; -1; 1 |]; [| -1; 1; 1 |] ]

(* Theorem 4.8 (k = n-3) verbatim: each of the four sign patterns needs
   a sign-matched row whose patterned sum escapes. *)
let cond_n_minus_3 h =
  let n, k = udims h in
  let per_pattern pat =
    any_
      (List.init n (fun i ->
           let ok = ref true in
           let sum = ref Zint.zero in
           for c = 0 to 2 do
             let x = uget h i (k + c) in
             if not (sign_match x pat.(c)) then ok := false;
             sum := Zint.add !sum (Zint.mul_int x pat.(c))
           done;
           if !ok then atom i (Zint.abs !sum) else False))
  in
  all_ (List.map per_pattern patterns_n_minus_3 @ [ cond3 h ])

(* The Theorem 4.7-style pairwise repair on kernel columns ca, cb. *)
let pair_cond h ca cb =
  let n, _ = udims h in
  let escape sigma =
    any_
      (List.init n (fun i ->
           let a = uget h i ca and b = Zint.mul_int (uget h i cb) sigma in
           if Zint.sign (Zint.mul a b) >= 0 then atom i (Zint.abs (Zint.add a b))
           else False))
  in
  all_ [ escape 1; escape (-1) ]

let corrected_cond_n_minus_3 h =
  let _, k = udims h in
  all_
    [ cond_n_minus_3 h; pair_cond h k (k + 1); pair_cond h k (k + 2);
      pair_cond h (k + 1) (k + 2) ]

(* Theorem 4.5: some size-d row subset with nonsingular kernel
   restriction has every row gcd past its bound.  The mu-dependent
   candidate filter of the concrete form becomes a disjunction over the
   (mu-independent) nonsingular subsets.  C(n, d) can blow up for wide
   kernels, so the builder refuses past [cond4_max_subsets] — the
   caller then leaves the family's sufficient arm empty and those
   instances are residual, decided by the exact oracle. *)
let cond4_max_subsets = 20_000

let cond4 h =
  let n, k = udims h in
  let d = n - k in
  let row_gcd i =
    let g = ref Zint.zero in
    for c = k to n - 1 do
      g := Zint.gcd !g (uget h i c)
    done;
    !g
  in
  let choose n k =
    let rec go acc i = if i > k then acc else go (acc * (n - i + 1) / i) (i + 1) in
    if k < 0 || k > n then 0 else go 1 1
  in
  if choose n d > cond4_max_subsets then None
  else begin
    let rec subsets sz from =
      if sz = 0 then [ [] ]
      else if from >= n then []
      else
        List.map (fun s -> from :: s) (subsets (sz - 1) (from + 1))
        @ subsets sz (from + 1)
    in
    let arms =
      List.filter_map
        (fun rows ->
          let m = Intmat.make d d (fun a b -> uget h (List.nth rows a) (k + b)) in
          if Zint.is_zero (Intmat.det m) then None
          else Some (all_ (List.map (fun i -> atom i (row_gcd i)) rows)))
        (subsets d 0)
    in
    Some (any_ arms)
  end

(* ----------------------------- families ----------------------------- *)

type meth =
  | Full_rank_square
  | Adjugate_form
  | Column_infeasible
  | Hermite_n_minus_2
  | Hermite_n_minus_3
  | Gcd_sufficient

let method_name = function
  | Full_rank_square -> "full-rank-square"
  | Adjugate_form -> "adjugate-form"
  | Column_infeasible -> "kernel-column-infeasible"
  | Hermite_n_minus_2 -> "hermite-n-minus-2"
  | Hermite_n_minus_3 -> "hermite-n-minus-3"
  | Gcd_sufficient -> "gcd-sufficient"

type shape =
  | Const_free
  | Always_residual
  | Adjugate of Intvec.t
  | Cascade of {
      kernel : Intvec.t list;
      sufficient : (meth * cond) option;
    }

type t = {
  k : int;
  n : int;
  full_rank : bool;
  shape : shape;
}

let shape_name fam =
  match fam.shape with
  | Const_free -> "const-free"
  | Always_residual -> "residual"
  | Adjugate _ -> "adjugate"
  | Cascade _ -> "cascade"

let build t =
  let n = Intmat.cols t and k = Intmat.rows t in
  if k >= n then begin
    let r = Intmat.rank t in
    if r = n then { k; n; full_rank = r = k; shape = Const_free }
    else { k; n; full_rank = r = k; shape = Always_residual }
  end
  else if k = n - 1 && Intmat.rank t = n - 1 then
    match Conflict.single_conflict_vector t with
    | Some gamma -> { k; n; full_rank = true; shape = Adjugate gamma }
    | None -> assert false (* full rank guarantees a nonzero minor *)
  else begin
    let h = Hnf.compute t in
    let rank = h.Hnf.rank in
    if rank <> k then { k; n; full_rank = false; shape = Always_residual }
    else begin
      (* Witnesses are stored pre-normalized, in the Hermite
         multiplier's column order; the first one trapped in the box is
         the verdict's witness. *)
      let kernel =
        List.init (n - rank) (fun c ->
            Intvec.normalize_sign (Intmat.col h.Hnf.u (rank + c)))
      in
      let codim = n - rank in
      let sufficient =
        if codim = 2 then Some (Hermite_n_minus_2, cond_n_minus_2 h)
        else if codim = 3 then Some (Hermite_n_minus_3, corrected_cond_n_minus_3 h)
        else Option.map (fun c -> (Gcd_sufficient, c)) (cond4 h)
      in
      { k; n; full_rank = true; shape = Cascade { kernel; sufficient } }
    end
  end

type evaluation =
  | Decided of {
      conflict_free : bool;
      method_ : meth;
      witness : Intvec.t option;
    }
  | Residual

let eval fam ~mu =
  if Array.length mu <> fam.n then invalid_arg "Family.eval: arity mismatch";
  match fam.shape with
  | Const_free -> Decided { conflict_free = true; method_ = Full_rank_square; witness = None }
  | Always_residual -> Residual
  | Adjugate gamma ->
    let free = Conflict.is_feasible ~mu gamma in
    Decided
      {
        conflict_free = free;
        method_ = Adjugate_form;
        witness = (if free then None else Some gamma);
      }
  | Cascade { kernel; sufficient } -> (
    match List.find_opt (fun w -> not (Conflict.is_feasible ~mu w)) kernel with
    | Some w ->
      Decided { conflict_free = false; method_ = Column_infeasible; witness = Some w }
    | None -> (
      match sufficient with
      | Some (m, c) when eval_cond c ~mu ->
        Decided { conflict_free = true; method_ = m; witness = None }
      | _ -> Residual))

let decide ~mu t =
  match eval (build t) ~mu with
  | Decided { conflict_free; _ } -> conflict_free
  | Residual -> Conflict.is_conflict_free ~mu t

(* ------------------------------- codec ------------------------------ *)

(* Space-free rendering, so a family fits one token of a store journal
   record.  Grammar (docs/FAMILIES.md):
     family := k ':' n ':' fr ':' shape
     shape  := "CF" | "RD" | 'A' vec | 'K' vec+ '!' suff
     suff   := '~' | tag '@' cond          tag := "h2" | "h3" | "g4"
     vec    := '(' int (',' int)* ')'
     cond   := 'T' | 'F' | 'l' i '.' c
             | '&(' cond (',' cond)* ')' | '|(' cond (',' cond)* ')' *)

let rec cond_to_buf b c =
  match c with
  | True -> Buffer.add_char b 'T'
  | False -> Buffer.add_char b 'F'
  | Lt (i, c) ->
    Buffer.add_char b 'l';
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b '.';
    Buffer.add_string b (Zint.to_string c)
  | All cs | Any cs ->
    Buffer.add_char b (match c with All _ -> '&' | _ -> '|');
    Buffer.add_char b '(';
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char b ',';
        cond_to_buf b c)
      cs;
    Buffer.add_char b ')'

let vec_to_buf b v =
  Buffer.add_char b '(';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Zint.to_string x))
    v;
  Buffer.add_char b ')'

let suff_tag = function
  | Hermite_n_minus_2 -> "h2"
  | Hermite_n_minus_3 -> "h3"
  | Gcd_sufficient -> "g4"
  | Full_rank_square | Adjugate_form | Column_infeasible ->
    invalid_arg "Family.to_string: not a sufficient-arm method"

let to_string fam =
  let b = Buffer.create 64 in
  Buffer.add_string b (string_of_int fam.k);
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int fam.n);
  Buffer.add_char b ':';
  Buffer.add_char b (if fam.full_rank then '1' else '0');
  Buffer.add_char b ':';
  (match fam.shape with
  | Const_free -> Buffer.add_string b "CF"
  | Always_residual -> Buffer.add_string b "RD"
  | Adjugate gamma ->
    Buffer.add_char b 'A';
    vec_to_buf b gamma
  | Cascade { kernel; sufficient } ->
    Buffer.add_char b 'K';
    List.iter (vec_to_buf b) kernel;
    Buffer.add_char b '!';
    (match sufficient with
    | None -> Buffer.add_char b '~'
    | Some (m, c) ->
      Buffer.add_string b (suff_tag m);
      Buffer.add_char b '@';
      cond_to_buf b c));
  Buffer.contents b

exception Parse of string

let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let next () =
    if !pos >= len then raise (Parse "truncated");
    let c = s.[!pos] in
    incr pos;
    c
  in
  let expect c =
    if next () <> c then raise (Parse (Printf.sprintf "expected %c" c))
  in
  let take_while p =
    let start = !pos in
    while !pos < len && p s.[!pos] do
      incr pos
    done;
    if !pos = start then raise (Parse "empty token");
    String.sub s start (!pos - start)
  in
  let is_digit c = c >= '0' && c <= '9' in
  let int_tok () = int_of_string (take_while is_digit) in
  let zint_tok () =
    let neg = peek () = Some '-' in
    if neg then incr pos;
    let d = take_while is_digit in
    Zint.of_string (if neg then "-" ^ d else d)
  in
  let vec () =
    expect '(';
    let xs = ref [ zint_tok () ] in
    while peek () = Some ',' do
      incr pos;
      xs := zint_tok () :: !xs
    done;
    expect ')';
    Array.of_list (List.rev !xs)
  in
  let rec cond () =
    match next () with
    | 'T' -> True
    | 'F' -> False
    | 'l' ->
      let i = int_tok () in
      expect '.';
      Lt (i, zint_tok ())
    | ('&' | '|') as junction ->
      expect '(';
      let cs = ref [ cond () ] in
      while peek () = Some ',' do
        incr pos;
        cs := cond () :: !cs
      done;
      expect ')';
      let cs = List.rev !cs in
      if junction = '&' then All cs else Any cs
    | c -> raise (Parse (Printf.sprintf "unexpected %c in condition" c))
  in
  let shape () =
    match next () with
    | 'C' ->
      expect 'F';
      Const_free
    | 'R' ->
      expect 'D';
      Always_residual
    | 'A' -> Adjugate (vec ())
    | 'K' ->
      let kernel = ref [ vec () ] in
      while peek () = Some '(' do
        kernel := vec () :: !kernel
      done;
      expect '!';
      let sufficient =
        match next () with
        | '~' -> None
        | 'h' -> (
          let m =
            match next () with
            | '2' -> Hermite_n_minus_2
            | '3' -> Hermite_n_minus_3
            | c -> raise (Parse (Printf.sprintf "unknown tag h%c" c))
          in
          expect '@';
          Some (m, cond ()))
        | 'g' ->
          expect '4';
          expect '@';
          Some (Gcd_sufficient, cond ())
        | c -> raise (Parse (Printf.sprintf "unknown sufficient tag %c" c))
      in
      Cascade { kernel = List.rev !kernel; sufficient }
    | c -> raise (Parse (Printf.sprintf "unknown shape %c" c))
  in
  match
    let k = int_tok () in
    expect ':';
    let n = int_tok () in
    expect ':';
    let fr =
      match next () with
      | '1' -> true
      | '0' -> false
      | _ -> raise (Parse "bad full-rank flag")
    in
    expect ':';
    let sh = shape () in
    if !pos <> len then raise (Parse "trailing bytes");
    { k; n; full_rank = fr; shape = sh }
  with
  | fam -> Some fam
  | exception (Parse _ | Failure _ | Invalid_argument _) -> None
