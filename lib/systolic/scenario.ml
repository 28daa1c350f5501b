(* ------------------------------ dtypes ----------------------------- *)

type _ dtype = Int : int dtype | Int32 : int32 dtype | Float : float dtype

module type TYPE = sig
  type t

  val dtype : t dtype
  val name : string
  val of_int : int -> t
  val add : t -> t -> t
  val mul : t -> t -> t
  val damp : t -> t
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

let ulp_distance x y =
  if x = y then 0
  else if Float.is_nan x || Float.is_nan y then max_int
  else begin
    let bx = Int64.bits_of_float x and by = Int64.bits_of_float y in
    if Int64.logand bx Int64.min_int <> Int64.logand by Int64.min_int then max_int
    else
      (* Same sign: the magnitude difference fits an int. *)
      Int64.to_int (Int64.abs (Int64.sub bx by))
  end

module Int_type = struct
  type t = int

  let dtype = Int
  let name = "int"
  let of_int x = x
  let add = ( + )
  let mul = ( * )
  let damp x = x
  let equal = Int.equal
  let pp = Format.pp_print_int
end

module Int32_type = struct
  type t = int32

  let dtype = Int32
  let name = "int32"
  let of_int = Int32.of_int
  let add = Int32.add
  let mul = Int32.mul
  let damp x = x
  let equal = Int32.equal
  let pp fmt x = Format.fprintf fmt "%ldl" x
end

module Float_type = struct
  type t = float

  let dtype = Float
  let name = "float"
  let of_int = float_of_int
  let add = ( +. )
  let mul = ( *. )
  let damp x = x *. 0.0625
  let equal x y = ulp_distance x y <= 2
  let pp fmt x = Format.fprintf fmt "%.17g" x
end

let types : (module TYPE) list =
  [ (module Int_type); (module Int32_type); (module Float_type) ]

let type_by_name n =
  List.find_opt (fun (module M : TYPE) -> M.name = n) types

(* ----------------------------- scenarios --------------------------- *)

type schedule = Optimal | Alternative

type spec = {
  name : string;
  algorithm : string;
  mu : int;
  schedule : schedule;
  flops_per_cell : int;
}

let scenario ?(schedule = Optimal) algorithm ~mu =
  let flops_per_cell =
    match algorithm with
    | "matmul" -> 2 (* one multiply-add per point *)
    | "tc" -> 11 (* 5 muls + 5 adds + the damp scale *)
    | other -> invalid_arg ("Scenario.scenario: unknown algorithm " ^ other)
  in
  let name =
    Printf.sprintf "%s-%d%s" algorithm mu
      (match schedule with Optimal -> "" | Alternative -> "-alt")
  in
  { name; algorithm; mu; schedule; flops_per_cell }

let default_scenarios =
  [
    scenario "matmul" ~mu:4;
    scenario "matmul" ~mu:8;
    scenario "matmul" ~mu:16;
    scenario "matmul" ~mu:8 ~schedule:Alternative;
    scenario "tc" ~mu:4;
    scenario "tc" ~mu:8;
    scenario "tc" ~mu:16;
    scenario "tc" ~mu:8 ~schedule:Alternative;
  ]

let schedule_name spec =
  match (spec.schedule, spec.algorithm) with
  | Optimal, _ -> "optimal"
  | Alternative, "matmul" -> "lee-kedem"
  | Alternative, _ -> "prior"

let instantiate spec =
  let mu = spec.mu in
  match spec.algorithm with
  | "matmul" ->
    let pi =
      match spec.schedule with
      | Optimal -> Matmul.optimal_pi ~mu
      | Alternative -> Matmul.lee_kedem_pi ~mu
    in
    (Matmul.algorithm ~mu, Tmap.make ~s:Matmul.paper_s ~pi)
  | "tc" ->
    let pi =
      match spec.schedule with
      | Optimal -> Transitive_closure.optimal_pi ~mu
      | Alternative -> Transitive_closure.prior_pi ~mu
    in
    (Transitive_closure.algorithm ~mu, Tmap.make ~s:Transitive_closure.paper_s ~pi)
  | other -> invalid_arg ("Scenario.instantiate: unknown algorithm " ^ other)

(* ------------------------ generic semantics ------------------------ *)

(* Run storage.  A lowered run takes its stream arrays from a free list
   per element type, so a run reuses memory that is already mapped
   instead of faulting in fresh pages: at mu = 64 that first touch was
   the largest single cost of a matmul run.  An array goes back on the
   list only from its [Gc.finalise] callback, once the GC has proved
   that no result's [lookup] can reach it.  Contents are unspecified:
   a sweep writes every position before any consumer reads it
   (Algorithm.sweep).

   Each list is one immutable value swapped by compare-and-set, not a
   mutex-guarded one: a finaliser runs at an allocation point of the
   domain that registered it, which may be inside that domain's own
   critical section. *)

let storage_cap_bytes = 16 lsl 20
let storage_fresh = Obs.Metrics.counter "exec.storage.fresh"
let storage_recycled = Obs.Metrics.counter "exec.storage.recycled"

type 'a free_list = {
  free : ('a list * int) Atomic.t;  (* most recently returned first, and their bytes *)
  length : 'a -> int;
  elt_bytes : int;
  create : int -> 'a;
}

(* The most recently returned arrays that fit under the cap stay. *)
let rec give_back fl a =
  let ((arrays, _) as cur) = Atomic.get fl.free in
  let kept, bytes =
    List.fold_left
      (fun (kept, bytes) b ->
        let size = fl.length b * fl.elt_bytes in
        if bytes + size <= storage_cap_bytes then (b :: kept, bytes + size) else (kept, bytes))
      ([], 0) (a :: arrays)
  in
  if not (Atomic.compare_and_set fl.free cur (List.rev kept, bytes)) then give_back fl a

let handed_out fl counter a =
  Obs.Metrics.incr counter;
  Gc.finalise (give_back fl) a;
  a

let rec take fl card =
  let ((arrays, bytes) as cur) = Atomic.get fl.free in
  match List.find_opt (fun a -> fl.length a = card) arrays with
  | None -> handed_out fl storage_fresh (fl.create card)
  | Some a ->
    let rest = (List.filter (( != ) a) arrays, bytes - (card * fl.elt_bytes)) in
    if Atomic.compare_and_set fl.free cur rest then handed_out fl storage_recycled a
    else take fl card

let int_storage =
  {
    free = Atomic.make ([], 0);
    length = Array.length;
    elt_bytes = Sys.word_size / 8;
    create = (fun n -> Array.make n 0);
  }

(* A fresh float array is filled, as an int array must be, so that its
   pages are touched before [Kernel.run] starts the clock. *)
let float_storage =
  {
    free = Atomic.make ([], 0);
    length = Float.Array.length;
    elt_bytes = 8;
    create = (fun n -> Float.Array.make n 0.);
  }

let storage_retained_bytes () = (snd (Atomic.get int_storage.free), snd (Atomic.get float_storage.free))

(* Matmul over an arbitrary dtype: the same three streams as
   [Matmul.semantics] (B along d1, A along d2, the running sum along
   d3), inputs drawn as small ints so every dtype represents them
   exactly and the integer reference stays overflow-free. *)

type 'v streams = { va : 'v; vb : 'v; vc : 'v }

(* The lowered loops: each semantics' arithmetic written again over
   flat streams in sweep position order (Algorithm.sweep), one loop per
   machine type so no value is boxed and no operation is an indirect
   call.  n = 3 for both case studies, so point p's coordinates start
   at 3p.  int32 runs the int loop: its ring operations are int's
   modulo 2^32, so boxing a value through [Int32.of_int] yields what
   Int32 arithmetic would have computed. *)

let matmul_int_sweep ~box a b card =
  let sa = take int_storage card and sb = take int_storage card in
  let sc = take int_storage card in
  let range ~coords ~preds lo hi =
    for p = lo to hi - 1 do
      let q = 3 * p in
      let pb = preds.(q) and pa = preds.(q + 1) and pc = preds.(q + 2) in
      let vb = if pb >= 0 then sb.(pb) else b.(coords.(q + 2)).(coords.(q + 1)) in
      let va = if pa >= 0 then sa.(pa) else a.(coords.(q)).(coords.(q + 2)) in
      let vc = if pc >= 0 then sc.(pc) else 0 in
      sa.(p) <- va;
      sb.(p) <- vb;
      sc.(p) <- vc + (va * vb)
    done
  in
  { Algorithm.range; get = (fun p -> { va = box sa.(p); vb = box sb.(p); vc = box sc.(p) }) }

let matmul_float_sweep a b =
  let a = Array.map (Array.map float_of_int) a and b = Array.map (Array.map float_of_int) b in
  fun card ->
    let sa = take float_storage card and sb = take float_storage card in
    let sc = take float_storage card in
    let range ~coords ~preds lo hi =
      for p = lo to hi - 1 do
        let q = 3 * p in
        let pb = preds.(q) and pa = preds.(q + 1) and pc = preds.(q + 2) in
        let vb = if pb >= 0 then Float.Array.get sb pb else b.(coords.(q + 2)).(coords.(q + 1)) in
        let va = if pa >= 0 then Float.Array.get sa pa else a.(coords.(q)).(coords.(q + 2)) in
        let vc = if pc >= 0 then Float.Array.get sc pc else 0. in
        Float.Array.set sa p va;
        Float.Array.set sb p vb;
        Float.Array.set sc p (vc +. (va *. vb))
      done
    in
    let get p = { va = Float.Array.get sa p; vb = Float.Array.get sb p; vc = Float.Array.get sc p } in
    { Algorithm.range; get }

let matmul_semantics (type a) (module M : TYPE with type t = a) ~mu ~seed :
    a streams Algorithm.semantics =
  let rng = Random.State.make [| 0x7e57; seed; mu |] in
  let matrix () =
    Array.init (mu + 1) (fun _ ->
        Array.init (mu + 1) (fun _ -> Random.State.int rng 19 - 9))
  in
  let a = matrix () and b = matrix () in
  let zero = M.of_int 0 in
  let lowered : int -> a streams Algorithm.sweep =
    match M.dtype with
    | Int -> matmul_int_sweep ~box:Fun.id a b
    | Int32 -> matmul_int_sweep ~box:Int32.of_int a b
    | Float -> matmul_float_sweep a b
  in
  {
    Algorithm.boundary =
      (fun j i ->
        match i with
        | 0 -> { va = zero; vb = M.of_int b.(j.(2)).(j.(1)); vc = zero }
        | 1 -> { va = M.of_int a.(j.(0)).(j.(2)); vb = zero; vc = zero }
        | 2 -> { va = zero; vb = zero; vc = zero }
        | _ -> invalid_arg "Scenario.matmul_semantics: bad dependence index");
    compute =
      (fun _ ops ->
        let from_b = ops.(0) and from_a = ops.(1) and from_c = ops.(2) in
        {
          va = from_a.va;
          vb = from_b.vb;
          vc = M.add from_c.vc (M.mul from_a.va from_b.vb);
        });
    equal_value =
      (fun x y -> M.equal x.va y.va && M.equal x.vb y.vb && M.equal x.vc y.vc);
    pp_value =
      (fun fmt v ->
        Format.fprintf fmt "{a=%a;b=%a;c=%a}" M.pp v.va M.pp v.vb M.pp v.vc);
    lowered = Some lowered;
  }

(* Transitive closure over an arbitrary dtype.  The paper evaluates the
   reindexed algorithm structurally (the recurrence arithmetic lives in
   [17]), so execution uses a fixed polynomial recurrence over the five
   dependence streams: deterministic per point, sensitive to any
   misrouted operand, and — thanks to [damp] — bounded for float.
   [tc_input] and [tc_offset] are the recurrence's inputs, as ints. *)

let tc_coefficients = [| 2; -3; 1; -1; 2 |]
let tc_input j0 j1 j2 i = (((i + 1) * (j0 + (2 * j1) + (3 * j2) + 5)) mod 17) - 8
let tc_offset j0 j1 j2 = ((j0 + j1 + j2) mod 5) - 2

(* One operand of the recurrence: the value at its predecessor's
   position, or the boundary input. *)
let[@inline] tc_int_operand s preds q i j0 j1 j2 =
  let x = preds.(q + i) in
  if x >= 0 then s.(x) else tc_input j0 j1 j2 i

let tc_int_sweep ~box card =
  let s = take int_storage card and c = tc_coefficients in
  let range ~coords ~preds lo hi =
    for p = lo to hi - 1 do
      let r = 3 * p and q = 5 * p in
      let j0 = coords.(r) and j1 = coords.(r + 1) and j2 = coords.(r + 2) in
      let acc = tc_int_operand s preds q 0 j0 j1 j2 * c.(0) in
      let acc = acc + (tc_int_operand s preds q 1 j0 j1 j2 * c.(1)) in
      let acc = acc + (tc_int_operand s preds q 2 j0 j1 j2 * c.(2)) in
      let acc = acc + (tc_int_operand s preds q 3 j0 j1 j2 * c.(3)) in
      let acc = acc + (tc_int_operand s preds q 4 j0 j1 j2 * c.(4)) in
      s.(p) <- acc + tc_offset j0 j1 j2
    done
  in
  { Algorithm.range; get = (fun p -> box s.(p)) }

let[@inline] tc_float_operand s preds q i j0 j1 j2 =
  let x = preds.(q + i) in
  if x >= 0 then Float.Array.get s x else float_of_int (tc_input j0 j1 j2 i)

(* Float_type's sum starts from 0. and adds each product in dependence
   order; the same order here keeps the results bit-identical. *)
let tc_float_sweep card =
  let s = take float_storage card in
  let c = Float.Array.map_from_array float_of_int tc_coefficients in
  let range ~coords ~preds lo hi =
    for p = lo to hi - 1 do
      let r = 3 * p and q = 5 * p in
      let j0 = coords.(r) and j1 = coords.(r + 1) and j2 = coords.(r + 2) in
      let acc = 0. +. (tc_float_operand s preds q 0 j0 j1 j2 *. Float.Array.get c 0) in
      let acc = acc +. (tc_float_operand s preds q 1 j0 j1 j2 *. Float.Array.get c 1) in
      let acc = acc +. (tc_float_operand s preds q 2 j0 j1 j2 *. Float.Array.get c 2) in
      let acc = acc +. (tc_float_operand s preds q 3 j0 j1 j2 *. Float.Array.get c 3) in
      let acc = acc +. (tc_float_operand s preds q 4 j0 j1 j2 *. Float.Array.get c 4) in
      Float.Array.set s p (Float_type.damp acc +. float_of_int (tc_offset j0 j1 j2))
    done
  in
  { Algorithm.range; get = Float.Array.get s }

let tc_semantics (type a) (module M : TYPE with type t = a) :
    a Algorithm.semantics =
  let lowered : int -> a Algorithm.sweep =
    match M.dtype with
    | Int -> tc_int_sweep ~box:Fun.id
    | Int32 -> tc_int_sweep ~box:Int32.of_int
    | Float -> tc_float_sweep
  in
  {
    Algorithm.boundary = (fun j i -> M.of_int (tc_input j.(0) j.(1) j.(2) i));
    compute =
      (fun j ops ->
        let acc = ref (M.of_int 0) in
        Array.iteri
          (fun i v -> acc := M.add !acc (M.mul v (M.of_int tc_coefficients.(i))))
          ops;
        M.add (M.damp !acc) (M.of_int (tc_offset j.(0) j.(1) j.(2))));
    equal_value = M.equal;
    pp_value = M.pp;
    lowered = Some lowered;
  }

(* ------------------------------ cells ------------------------------ *)

type cell = {
  spec : spec;
  dtype : string;
  jobs : int;
  cells : int;
  levels : int;
  makespan : int;
  processors : int;
  peak_width : int;
  mismatches : int;
  verified : bool;
  movement : Exec.movement;
  elapsed_s : float;
  gflops : float;
  utilization : float;
}

let mismatch_counter = Obs.Metrics.counter "exec.verify.mismatches"

(* What every dtype cell of a scenario shares: its mapping, the
   compiled plan, and the data-movement checks, which read the
   schedule and never a value. *)
type prepared = {
  spec : spec;
  alg : Algorithm.t;
  plan : Kernel.plan;
  movement : Exec.movement;
}

let prepare ?block spec =
  let alg, tm = instantiate spec in
  let plan = Kernel.compile ?block alg tm in
  let movement = Obs.Trace.with_span "exec.verify" (fun () -> Exec.movement alg tm plan) in
  { spec; alg; plan; movement }

(* The dtype-polymorphic core: execute and verify cell-for-cell; only
   monomorphic measurements escape. *)
let measure (type v) ~pool alg plan (sem : v Algorithm.semantics) =
  let kr = Kernel.run ~pool plan sem in
  Obs.Trace.with_span "exec.verify" @@ fun () ->
  let reference = Algorithm.evaluate_all alg sem in
  let mismatches =
    Index_set.fold
      (fun acc j ->
        if sem.Algorithm.equal_value (kr.Kernel.lookup j) (reference j) then acc
        else acc + 1)
      0 alg.Algorithm.index_set
  in
  if mismatches > 0 then Obs.Metrics.add mismatch_counter mismatches;
  (kr.Kernel.elapsed_s, mismatches)

let run_prepared ?pool pr (module M : TYPE) =
  let pool = match pool with Some p -> p | None -> Engine.Pool.create () in
  let spec = pr.spec and plan = pr.plan in
  let elapsed_s, mismatches =
    match spec.algorithm with
    | "matmul" ->
      measure ~pool pr.alg plan (matmul_semantics (module M) ~mu:spec.mu ~seed:2025)
    | _ -> measure ~pool pr.alg plan (tc_semantics (module M))
  in
  let cells = Kernel.cells plan in
  {
    spec;
    dtype = M.name;
    jobs = Engine.Pool.jobs pool;
    cells;
    levels = Kernel.levels plan;
    makespan = Kernel.makespan plan;
    processors = Kernel.processors plan;
    peak_width = Kernel.peak_width plan;
    mismatches;
    verified = mismatches = 0;
    movement = pr.movement;
    elapsed_s;
    gflops =
      (if elapsed_s <= 0. then 0.
       else float_of_int (spec.flops_per_cell * cells) /. elapsed_s /. 1e9);
    utilization = Kernel.utilization plan;
  }

let run_cell ?pool ?block spec ty = run_prepared ?pool (prepare ?block spec) ty

(* One plan and one set of movement checks per scenario, shared by its
   dtype cells. *)
let run_matrix ?pool ?block specs dtypes =
  List.concat_map
    (fun spec ->
      let pr = prepare ?block spec in
      List.map (run_prepared ?pool pr) dtypes)
    specs

let movement_clean (mv : Exec.movement) =
  mv.Exec.routing <> None && mv.Exec.causality_violations = [] && mv.Exec.collisions = []

let cell_ok c = c.verified && movement_clean c.movement

let json_of_cell (c : cell) =
  Json.Obj
    [
      ("scenario", Json.Str c.spec.name);
      ("algorithm", Json.Str c.spec.algorithm);
      ("mu", Json.Int c.spec.mu);
      ("schedule", Json.Str (schedule_name c.spec));
      ("dtype", Json.Str c.dtype);
      ("jobs", Json.Int c.jobs);
      ("cells", Json.Int c.cells);
      ("levels", Json.Int c.levels);
      ("makespan", Json.Int c.makespan);
      ("processors", Json.Int c.processors);
      ("peak_width", Json.Int c.peak_width);
      ("verified", Json.Bool c.verified);
      ("mismatches", Json.Int c.mismatches);
      ( "movement",
        let mv = c.movement in
        Json.Obj
          [
            ("routed", Json.Bool (mv.Exec.routing <> None));
            ("causality_violations", Json.Int (List.length mv.Exec.causality_violations));
            ("link_collisions", Json.Int (List.length mv.Exec.collisions));
            ("buffers", Json.ints (Array.to_list mv.Exec.max_buffer_occupancy));
            ("clean", Json.Bool (movement_clean mv));
          ] );
      ("elapsed_ms", Json.Float (c.elapsed_s *. 1000.));
      ("gflops", Json.Float c.gflops);
      ("utilization", Json.Float c.utilization);
    ]
