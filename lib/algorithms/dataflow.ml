(* 63-bit mixing in the spirit of the splitmix64 finalizer (constants
   truncated to OCaml's int range); good enough to make accidental
   fingerprint collisions vanishingly unlikely. *)
let mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3f58476d1ce4e5b9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14d049bb133111eb in
  h lxor (h lsr 31)

let combine acc x = mix ((acc * 31) + x + 0x9e3779b9)

let point_tag j = Array.fold_left combine 0x12345 j

let semantics =
  {
    Algorithm.boundary = (fun j i -> mix (combine (point_tag j) (i + 7777)));
    compute = (fun j ops -> Array.fold_left combine (point_tag j) ops);
    equal_value = Int.equal;
    pp_value = (fun fmt v -> Format.fprintf fmt "%x" (v land 0xffffff));
    lowered = None;
  }

let fingerprint_all alg =
  let value = Algorithm.evaluate_all alg semantics in
  Index_set.fold (fun acc j -> combine acc (value j)) 0 alg.Algorithm.index_set
