type t = {
  name : string;
  index_set : Index_set.t;
  dependences : Intmat.t;
}

let make ~name ~index_set ~dependences =
  let n = Index_set.dim index_set in
  if dependences = [] then invalid_arg "Algorithm.make: no dependences";
  if List.exists (fun d -> List.length d <> n) dependences then
    invalid_arg "Algorithm.make: dependence arity mismatch";
  (* Columns are given; build the n×m matrix. *)
  let cols = List.map Intvec.of_ints dependences in
  { name; index_set; dependences = Intmat.of_cols cols }

let dim a = Index_set.dim a.index_set
let num_dependences a = Intmat.cols a.dependences

let dependence a i =
  Array.init (dim a) (fun r -> Zint.to_int (Intmat.get a.dependences r i))

let predecessor a j i =
  let d = dependence a i in
  Array.mapi (fun r x -> x - d.(r)) j

type 'v sweep = {
  range : coords:int array -> preds:int array -> int -> int -> unit;
  get : int -> 'v;
}

type 'v semantics = {
  boundary : int array -> int -> 'v;
  compute : int array -> 'v array -> 'v;
  equal_value : 'v -> 'v -> bool;
  pp_value : Format.formatter -> 'v -> unit;
  lowered : (int -> 'v sweep) option;
}

(* Memo marks, one byte per point of the box. *)
let unseen = '\000'
let in_progress = '\001'
let finished = '\002'

(* Values and marks live in flat arrays at the point's dense box id
   [sum_i j_i * stride_i]; the values array is made at the first
   computed value, which also serves as its fill. *)
let evaluate_memo a sem =
  let mu = Index_set.bounds a.index_set in
  let n = Array.length mu in
  let stride = Array.make n 1 in
  for i = n - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * (mu.(i + 1) + 1)
  done;
  let card = Index_set.cardinal a.index_set in
  let marks = Bytes.make card unseen in
  let values = ref [||] in
  let deps = Array.init (num_dependences a) (dependence a) in
  let rec value j =
    let id = ref 0 in
    for i = 0 to n - 1 do
      id := !id + (j.(i) * stride.(i))
    done;
    let id = !id in
    let mark = Bytes.get marks id in
    if mark = finished then !values.(id)
    else begin
      if mark = in_progress then failwith "Algorithm.evaluate: cyclic dependences";
      Bytes.set marks id in_progress;
      let operands =
        Array.mapi
          (fun i d ->
            let p = Array.mapi (fun r x -> x - d.(r)) j in
            if Index_set.contains a.index_set p then value p else sem.boundary j i)
          deps
      in
      let v = sem.compute j operands in
      if Array.length !values = 0 then values := Array.make card v;
      !values.(id) <- v;
      Bytes.set marks id finished;
      v
    end
  in
  value

let evaluate a sem j =
  if not (Index_set.contains a.index_set j) then
    invalid_arg "Algorithm.evaluate: point outside the index set";
  evaluate_memo a sem j

let evaluate_all a sem =
  let value = evaluate_memo a sem in
  Index_set.iter (fun j -> ignore (value (Array.copy j))) a.index_set;
  fun j ->
    if not (Index_set.contains a.index_set j) then
      invalid_arg "Algorithm.evaluate_all: point outside the index set";
    value j

let is_acyclic_witness a pi =
  let prod = Intvec.(dim pi) in
  if prod <> dim a then invalid_arg "Algorithm.is_acyclic_witness: arity mismatch";
  let res = Intmat.vec_mul pi a.dependences in
  Array.for_all (fun x -> Zint.sign x > 0) res
