(* Experiment harness: regenerates every table and figure of the
   paper's evaluation plus the extension experiments (E1-E16 of
   DESIGN.md), then runs the Bechamel performance benches.

   Usage:
     main.exe                 run everything (experiments + perf)
     main.exe e1 .. e16       run selected experiments
     main.exe perf [--quick] [--out FILE]
                              run the performance benches and write a
                              machine-readable BENCH_<rev>.json
                              (--quick skips the Bechamel micro benches)
     main.exe diff OLD NEW [--threshold PCT]
                              compare two bench JSON files; exit 1 when
                              any timing regressed beyond the threshold
     main.exe quick           run experiments only (no perf)

   The JSON contract for the bench report and for diff is documented
   in docs/SCHEMA.md. *)

let iv = Intvec.of_ints
let im = Intmat.of_ints

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* E1 — Figure 1: feasible vs non-feasible conflict vectors on the
   2-D index set [0,4]^2. *)

let e1 () =
  section "E1 / Figure 1: conflict vectors on J = [0,4]^2";
  let mu = [| 4; 4 |] in
  let show name t gamma =
    let free = Conflict.is_conflict_free ~mu t in
    let hits = Conflict.all_in_box ~mu t in
    Printf.printf "gamma%s = %s: %s (%d colliding offsets in the box)\n" name gamma
      (if free then "feasible -> conflict-free mapping" else "NON-feasible -> conflicts")
      (List.length hits);
    List.iter (fun g -> Printf.printf "    offset %s\n" (Intvec.to_string g)) hits
  in
  (* A 1x2 mapping whose kernel is spanned by the displayed vector. *)
  show "1" (im [ [ 1; -1 ] ]) "(1,1)";
  show "2" (im [ [ 5; -3 ] ]) "(3,5)";
  print_endline "Paper: gamma1 collides on the diagonal; gamma2 meets no lattice point."

(* ------------------------------------------------------------------ *)
(* E2 — Example 2.1: conflict vectors of T in Equation 2.8. *)

let e2 () =
  section "E2 / Example 2.1: the mapping T of Equation 2.8 (mu = 6)";
  let t = im [ [ 1; 7; 1; 1 ]; [ 1; 7; 1; 0 ] ] in
  let mu = [| 6; 6; 6; 6 |] in
  let tbl = Table.create [ "vector"; "kernel?"; "feasible (Thm 2.2)?"; "paper" ] in
  List.iter
    (fun (name, v, paper) ->
      let g = iv v in
      Table.add_row tbl
        [
          name;
          string_of_bool (Intvec.is_zero (Intmat.mul_vec t g));
          string_of_bool (Conflict.is_feasible ~mu g);
          paper;
        ])
    [
      ("gamma1 = (0,1,-7,0)", [ 0; 1; -7; 0 ], "feasible");
      ("gamma2 = (7,-1,0,0)", [ 7; -1; 0; 0 ], "feasible");
      ("gamma3 = (1,0,-1,0)", [ 1; 0; -1; 0 ], "NOT feasible");
    ];
  Table.print tbl;
  Printf.printf "Overall: conflict-free = %b (paper: false)\n"
    (Conflict.is_conflict_free ~mu t)

(* ------------------------------------------------------------------ *)
(* E3 — Example 4.2: Hermite normal form of Equation 2.8. *)

let e3 () =
  section "E3 / Example 4.2: Hermite normal form of T (Equation 2.8)";
  let t = im [ [ 1; 7; 1; 1 ]; [ 1; 7; 1; 0 ] ] in
  let res = Hnf.compute t in
  Printf.printf "T U = H with U unimodular (verified: %b)\n" (Hnf.verify t res);
  Printf.printf "H =\n%s\nU =\n%s\nV = U^-1 =\n%s\n"
    (Intmat.to_string res.Hnf.h) (Intmat.to_string res.Hnf.u) (Intmat.to_string res.Hnf.v);
  print_endline "Conflict-vector generators (last two columns of U):";
  List.iter
    (fun g -> Printf.printf "  %s\n" (Intvec.to_string g))
    (Hnf.kernel_basis t);
  print_endline
    "Paper's generators u3 = (-1,0,1,0), u4 = (-7,1,0,0) span the same lattice."

(* ------------------------------------------------------------------ *)
(* E4/E5 — Equations 3.5 and 3.7: closed-form conflict vectors. *)

let closed_form_table name s pis =
  section name;
  let c = Conflict.f_coefficient_matrix ~s in
  Printf.printf "Coefficient matrix C with gamma(Pi) = lambda * C Pi^T (Prop 3.2):\n%s\n"
    (Intmat.to_string c);
  let tbl = Table.create [ "Pi"; "gamma (canonical)" ] in
  List.iter
    (fun pi ->
      let t = Intmat.append_row s (iv pi) in
      let g =
        match Conflict.single_conflict_vector t with
        | Some g -> Intvec.to_string g
        | None -> "rank deficient"
      in
      Table.add_row tbl
        [ "(" ^ String.concat "," (List.map string_of_int pi) ^ ")"; g ])
    pis;
  Table.print tbl

let e4 () =
  closed_form_table
    "E4 / Example 3.1: matmul, S = [1,1,-1]; gamma ~ (-p2-p3, p1+p3, p1-p2)"
    Matmul.paper_s [ [ 1; 4; 1 ]; [ 2; 1; 3 ]; [ 1; 2; 3 ] ]

let e5 () =
  closed_form_table
    "E5 / Example 3.2: transitive closure, S = [0,0,1]; gamma ~ (p2, -p1, 0)"
    Transitive_closure.paper_s [ [ 5; 1; 1 ]; [ 9; 1; 1 ]; [ 7; 2; 1 ] ]

(* ------------------------------------------------------------------ *)
(* E6 — Example 5.1: time-optimal schedule for matrix multiplication. *)

let e6 () =
  section "E6 / Example 5.1: optimal schedules for matmul (S = [1,1,-1])";
  let tbl =
    Table.create
      [ "mu"; "paper t = mu(mu+2)+1"; "Procedure 5.1"; "ILP (5.1)-(5.2)"; "[23] t' = mu(mu+3)+1" ]
  in
  List.iter
    (fun mu ->
      let alg = Matmul.algorithm ~mu in
      let p51 =
        match Procedure51.optimize alg ~s:Matmul.paper_s with
        | Some r -> r.Procedure51.total_time
        | None -> -1
      in
      let ilp =
        match Ilp_form.optimize alg ~s:Matmul.paper_s with
        | Some sol -> sol.Ilp_form.objective + 1
        | None -> -1
      in
      Table.add_int_row tbl (string_of_int mu)
        [ Matmul.optimal_total_time ~mu; p51; ilp; Matmul.lee_kedem_total_time ~mu ])
    [ 2; 3; 4; 5; 6; 7; 8; 12; 16; 20 ];
  Table.print tbl;
  let sol = Option.get (Ilp_form.optimize (Matmul.algorithm ~mu:4) ~s:Matmul.paper_s) in
  Printf.printf
    "At mu = 4 the ILP picks Pi = %s from branch '%s' (paper: Pi2 = (1,4,1) or Pi3 = (4,1,1));\n\
     all enumerated LP vertices were integral: %b (appendix claim).\n"
    (Intvec.to_string sol.Ilp_form.pi) sol.Ilp_form.branch sol.Ilp_form.integral_vertices

(* ------------------------------------------------------------------ *)
(* E7 — Figure 2: the linear array for matmul. *)

let e7 () =
  section "E7 / Figure 2: linear array for matmul, T = [[1,1,-1],[1,4,1]]";
  let mu = 4 in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu) in
  let procs = Tmap.processors tm alg.Algorithm.index_set in
  Printf.printf "%d processors: PE %d .. PE %d (paper: 13 PEs)\n" (List.length procs)
    (List.hd procs).(0)
    (List.nth procs (List.length procs - 1)).(0);
  match Tmap.find_routing tm ~d:alg.Algorithm.dependences with
  | None -> print_endline "no routing found (unexpected)"
  | Some r ->
    let tbl = Table.create [ "stream"; "direction (S d)"; "hops"; "buffers"; "paper" ] in
    let names = [| "B (d1)"; "A (d2)"; "C (d3)" |] in
    let paper =
      [| "left-to-right, 0 buffers"; "left-to-right, 3 buffers"; "right-to-left, 0 buffers" |]
    in
    let sd = Intmat.mul Matmul.paper_s alg.Algorithm.dependences in
    Array.iteri
      (fun i name ->
        Table.add_row tbl
          [
            name;
            Zint.to_string (Intmat.get sd 0 i);
            string_of_int r.Tmap.hops.(i);
            string_of_int r.Tmap.buffers.(i);
            paper.(i);
          ])
      names;
    Table.print tbl;
    Printf.printf "K = I (single primitive per stream) => no data link collisions.\n"

(* ------------------------------------------------------------------ *)
(* E8 — Figure 3: the execution table. *)

let e8 () =
  section "E8 / Figure 3: execution of matmul (mu = 4) on the linear array";
  let mu = 4 in
  let rng = Random.State.make [| 1990 |] in
  let a = Matmul.random_matrix ~rng (mu + 1) and b = Matmul.random_matrix ~rng (mu + 1) in
  let alg = Matmul.algorithm ~mu in
  let tm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu) in
  print_string (Trace.linear_array_table alg tm);
  let r = Exec.run alg (Matmul.semantics ~a ~b) tm in
  Printf.printf
    "\nmakespan = %d (paper: %d)   PEs = %d   conflicts = %d   link collisions = %d\n\
     buffers per stream = (%s) (paper: 3 on the A stream)   verification = %s\n"
    r.Exec.makespan (Matmul.optimal_total_time ~mu) r.Exec.num_processors
    (List.length r.Exec.conflicts) (List.length r.Exec.collisions)
    (String.concat "," (Array.to_list (Array.map string_of_int r.Exec.max_buffer_occupancy)))
    (Exec.verification_name r.Exec.verified)

(* ------------------------------------------------------------------ *)
(* E9 — Example 5.2: transitive closure. *)

let e9 () =
  section "E9 / Example 5.2: optimal schedules for transitive closure (S = [0,0,1])";
  let tbl =
    Table.create
      [ "mu"; "paper t = mu(mu+3)+1"; "Procedure 5.1"; "ILP (5.4)"; "[22] t' = mu(2mu+3)+1"; "speedup" ]
  in
  List.iter
    (fun mu ->
      let alg = Transitive_closure.algorithm ~mu in
      let p51 =
        match Procedure51.optimize alg ~s:Transitive_closure.paper_s with
        | Some r -> r.Procedure51.total_time
        | None -> -1
      in
      let ilp =
        match Ilp_form.optimize alg ~s:Transitive_closure.paper_s with
        | Some sol -> sol.Ilp_form.objective + 1
        | None -> -1
      in
      let t_prior = Transitive_closure.prior_total_time ~mu in
      Table.add_row tbl
        [
          string_of_int mu;
          string_of_int (Transitive_closure.optimal_total_time ~mu);
          string_of_int p51;
          string_of_int ilp;
          string_of_int t_prior;
          Printf.sprintf "%.2fx" (float_of_int t_prior /. float_of_int p51);
        ])
    [ 2; 3; 4; 5; 6; 7; 8; 12; 16 ];
  Table.print tbl;
  (* Simulation of the optimal mapping at mu = 4. *)
  let mu = 4 in
  let alg = Transitive_closure.algorithm ~mu in
  let tm = Tmap.make ~s:Transitive_closure.paper_s ~pi:(Transitive_closure.optimal_pi ~mu) in
  let r = Exec.run alg Dataflow.semantics tm in
  Printf.printf
    "Simulated at mu = 4: makespan = %d, PEs = %d, conflicts = %d, collisions = %d, verification = %s\n"
    r.Exec.makespan r.Exec.num_processors (List.length r.Exec.conflicts)
    (List.length r.Exec.collisions)
    (Exec.verification_name r.Exec.verified)

(* ------------------------------------------------------------------ *)
(* E10 — 5-D bit-level matmul to a 2-D array (formulation (5.5)-(5.6) /
   Proposition 8.1). *)

let e10 () =
  section "E10: 5-D bit-level matmul -> 2-D array (Prop 8.1 + Theorem 4.7)";
  let alg = Bit_matmul.algorithm ~mu_word:2 ~mu_bit:2 in
  let s = Bit_matmul.example_s in
  match Procedure51.optimize ~max_objective:40 alg ~s with
  | None -> print_endline "no schedule found"
  | Some r ->
    let pi = r.Procedure51.pi in
    let t = Intmat.append_row s pi in
    Printf.printf "S =\n%s\noptimal Pi = %s, total time = %d (tried %d candidates)\n"
      (Intmat.to_string s) (Intvec.to_string pi) r.Procedure51.total_time
      r.Procedure51.candidates_tried;
    (match Prop81.compute ~s ~pi with
    | Some p ->
      Printf.printf "Prop 8.1: h33 = %s, h34 = %s, h35 = %s\n  u4 = %s\n  u5 = %s\n"
        (Zint.to_string p.Prop81.h33) (Zint.to_string p.Prop81.h34) (Zint.to_string p.Prop81.h35)
        (Intvec.to_string p.Prop81.u4) (Intvec.to_string p.Prop81.u5);
      let canon b = (Hnf.compute (Intmat.of_cols b)).Hnf.h in
      Printf.printf "Closed-form generators span the HNF kernel lattice: %b\n"
        (Intmat.equal (canon [ p.Prop81.u4; p.Prop81.u5 ]) (canon (Hnf.kernel_basis t)))
    | None -> print_endline "Prop 8.1 not applicable (unexpected)");
    let r' = Exec.run alg Dataflow.semantics (Tmap.make ~s ~pi) in
    Printf.printf "Simulated: makespan = %d, PEs = %d, conflicts = %d, verification = %s\n"
      r'.Exec.makespan r'.Exec.num_processors (List.length r'.Exec.conflicts)
      (Exec.verification_name r'.Exec.verified);
    (* The executable serpentine variant computes real bit-level
       products through the same 2-D array family. *)
    let mu_word = 2 and mu_bit = 2 in
    let chained = Bit_matmul.chained_algorithm ~mu_word ~mu_bit in
    let rng = Random.State.make [| 8 |] in
    let a = Bit_matmul.random_word_matrix ~rng ~size:(mu_word + 1) ~mu_bit in
    let b = Bit_matmul.random_word_matrix ~rng ~size:(mu_word + 1) ~mu_bit in
    (match Procedure51.optimize ~max_objective:40 chained ~s with
    | Some rc ->
      let repc =
        Exec.run chained (Bit_matmul.semantics ~a ~b) (Tmap.make ~s ~pi:rc.Procedure51.pi)
      in
      Printf.printf
        "Executable bit-level variant: Pi = %s, t = %d, real products correct = %b\n"
        (Intvec.to_string rc.Procedure51.pi) rc.Procedure51.total_time
        (Exec.values_agree repc)
    | None -> print_endline "no schedule for the chained variant")

(* ------------------------------------------------------------------ *)
(* E11 — validation sweep of Theorems 4.3-4.8 against the box oracle. *)

let e11 () =
  section "E11: closed-form conditions vs exact box oracle (random sweep)";
  let rng = Random.State.make [| 77 |] in
  let trials = 3000 in
  let stats = Hashtbl.create 16 in
  let bump key =
    Hashtbl.replace stats key (1 + try Hashtbl.find stats key with Not_found -> 0)
  in
  for _ = 1 to trials do
    let codim = 2 + Random.State.int rng 2 in
    let n = codim + 1 + Random.State.int rng 2 in
    let k = n - codim in
    let t = Intmat.make k n (fun _ _ -> Zint.of_int (Random.State.int rng 15 - 7)) in
    if Intmat.rank t = k then begin
      let mu = Array.init n (fun _ -> 1 + Random.State.int rng 4) in
      let oracle = Conflict.is_conflict_free ~mu t in
      let inp = Theorems.make_input ~mu t in
      if codim = 2 then begin
        let thm = Theorems.nec_suff_n_minus_2 inp in
        if thm && not oracle then bump "4.7 sufficiency VIOLATED";
        if (not thm) && oracle then bump "4.7 necessity violated";
        if thm = oracle then bump "4.7 agrees"
      end
      else begin
        let printed = Theorems.nec_suff_n_minus_3 inp in
        let corrected = Theorems.corrected_sufficient_n_minus_3 inp in
        if printed && not oracle then bump "4.8 (printed) sufficiency VIOLATED";
        if corrected && not oracle then bump "4.8 (corrected) sufficiency VIOLATED";
        if (not printed) && oracle then bump "4.8 necessity violated";
        if printed = oracle then bump "4.8 agrees"
      end;
      if Family.decide ~mu t <> oracle then bump "decide WRONG"
    end
  done;
  let tbl = Table.create [ "event"; "count"; "trials" ] in
  List.iter
    (fun (k, v) -> Table.add_row tbl [ k; string_of_int v; string_of_int trials ])
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats []));
  Table.print tbl;
  print_endline
    "Reproduction finding: Theorem 4.7 is sufficient but not necessary as printed;\n\
     Theorem 4.8 as printed also misses conflict vectors with a zero beta component\n\
     (pairwise column combinations); the corrected variant restores sufficiency.\n\
     The unified decision procedure (exact fallback) never disagrees with the oracle."

(* ------------------------------------------------------------------ *)
(* E12 — optimizer cross-check and search effort. *)

let e12 () =
  section "E12: Procedure 5.1 vs ILP formulation (cross-check + effort)";
  let tbl =
    Table.create [ "workload"; "mu"; "P5.1 time"; "ILP time"; "agree"; "candidates tried" ]
  in
  let row name mu p51 ilp =
    match (p51, ilp) with
    | Some a, Some b ->
      Table.add_row tbl
        [
          name;
          string_of_int mu;
          string_of_int a.Procedure51.total_time;
          string_of_int (b.Ilp_form.objective + 1);
          string_of_bool (a.Procedure51.total_time = b.Ilp_form.objective + 1);
          string_of_int a.Procedure51.candidates_tried;
        ]
    | _ -> ()
  in
  List.iter
    (fun mu ->
      let alg = Matmul.algorithm ~mu in
      row "matmul" mu
        (Procedure51.optimize alg ~s:Matmul.paper_s)
        (Ilp_form.optimize alg ~s:Matmul.paper_s))
    [ 2; 3; 4; 5; 6 ];
  List.iter
    (fun mu ->
      let alg = Transitive_closure.algorithm ~mu in
      row "transitive closure" mu
        (Procedure51.optimize alg ~s:Transitive_closure.paper_s)
        (Ilp_form.optimize alg ~s:Transitive_closure.paper_s))
    [ 2; 3; 4; 5 ];
  Table.print tbl

(* ------------------------------------------------------------------ *)
(* E13 — Problem 6.1 (paper's future work): space-optimal arrays. *)

let e13 () =
  section "E13 / Problem 6.1: space-optimal conflict-free arrays (extension)";
  let tbl =
    Table.create
      [ "workload"; "Pi (given)"; "paper's S"; "paper PEs"; "best S found"; "PEs"; "wire" ]
  in
  let row name alg pi paper_s =
    let paper_procs =
      List.length (Tmap.processors (Tmap.make ~s:paper_s ~pi) alg.Algorithm.index_set)
    in
    match Space_opt.optimize alg ~pi ~k:2 with
    | Some r ->
      Table.add_row tbl
        [
          name;
          Intvec.to_string pi;
          Intmat.to_string paper_s;
          string_of_int paper_procs;
          Intmat.to_string r.Space_opt.s;
          string_of_int r.Space_opt.processors;
          string_of_int r.Space_opt.wire_length;
        ]
    | None -> Table.add_row tbl [ name; Intvec.to_string pi; Intmat.to_string paper_s; string_of_int paper_procs; "none"; "-"; "-" ]
  in
  row "matmul mu=4" (Matmul.algorithm ~mu:4) (Matmul.optimal_pi ~mu:4) Matmul.paper_s;
  row "matmul mu=6" (Matmul.algorithm ~mu:6) (Matmul.optimal_pi ~mu:6) Matmul.paper_s;
  row "transitive closure mu=4" (Transitive_closure.algorithm ~mu:4)
    (Transitive_closure.optimal_pi ~mu:4) Transitive_closure.paper_s;
  Table.print tbl;
  print_endline
    "For matmul the search finds a 9-PE linear array (S = [0,1,-1]) under the same\n\
     optimal schedule — fewer processors than the paper's 13-PE S = [1,1,-1]."

(* ------------------------------------------------------------------ *)
(* E14 — loop-nest front end: Definition 2.1's program class, end to
   end. *)

let e14 () =
  section "E14: nested-loop source -> (J, D) -> optimal array (extension)";
  let programs =
    [
      "for i = 0..4, j = 0..4, k = 0..4 { C[i,j] = C[i,j] + A[i,k] * B[k,j] }";
      "for i = 0..7, k = 0..3 { Y[i] = Y[i] + W[k] * X[i-k] }";
      "for t = 0..9, i = 0..7 { A[t,i] = A[t-1,i-1] + A[t-1,i] + A[t-1,i+1] }";
    ]
  in
  List.iter
    (fun src ->
      Printf.printf "\n%s\n" src;
      match Loopnest.parse_result src with
      | Error e -> print_endline ("  " ^ Loopnest.error_to_string e)
      | Ok a ->
        List.iter
          (fun (d, why) -> Printf.printf "  d = %s  (%s)\n" (Intvec.to_string d) why)
          a.Loopnest.dependence_origin;
        let alg = a.Loopnest.algorithm in
        let mu = Index_set.bounds alg.Algorithm.index_set in
        (* Problem 6.2: jointly time-optimal, then array-cheapest. *)
        (match Space_opt.optimize_joint alg ~k:2 with
        | Some (pi, so) ->
          Printf.printf "  linear array (Problem 6.2): S = %s, %d PEs, Pi = %s, t = %d\n"
            (Intmat.to_string so.Space_opt.s) so.Space_opt.processors
            (Intvec.to_string pi)
            (Schedule.total_time ~mu pi)
        | None -> print_endline "  no conflict-free linear array in the unit family"))
    programs

(* ------------------------------------------------------------------ *)
(* E15 — Section 3's motivating workload: 4-D bit-level convolution on
   a 2-D bit-plane array, via the Theorem 3.1 closed form. *)

let e15 () =
  section "E15: 4-D bit-level convolution -> 2-D bit-plane array (Theorem 3.1)";
  let alg = Bit_convolution.algorithm ~mu_sample:3 ~mu_tap:2 ~mu_bit:2 in
  let s = Bit_convolution.bitplane_s in
  match Procedure51.optimize alg ~s with
  | None -> print_endline "no schedule found"
  | Some r ->
    let tm = Tmap.make ~s ~pi:r.Procedure51.pi in
    let t = Tmap.matrix tm in
    Printf.printf "S (bit-plane) =\n%s\noptimal Pi = %s, total time = %d\n"
      (Intmat.to_string s) (Intvec.to_string r.Procedure51.pi) r.Procedure51.total_time;
    (match Conflict.single_conflict_vector t with
    | Some g -> Printf.printf "Theorem 3.1 conflict vector: %s (feasible)\n" (Intvec.to_string g)
    | None -> ());
    let stats = Stats.compute alg tm in
    Format.printf "%a@." Stats.pp stats;
    print_endline "PE load map (firings per bit-plane PE):";
    print_string (Trace.grid_activity alg tm);
    let rep = Exec.run alg Dataflow.semantics tm in
    Printf.printf "simulation clean: %b\n" (Exec.is_clean rep)

(* ------------------------------------------------------------------ *)
(* E16 — Problems 2.1/6.2 combined: the achievable (time, processors)
   trade-off (extension). *)

let e16 () =
  section "E16: time/processor Pareto fronts over unit linear arrays (extension)";
  (* Under Definition 2.2 only computational conflicts matter; the
     stricter [23]-style model also excludes link collisions —
     Linkcheck supplies that filter analytically. *)
  let collision_free alg pi s =
    let tm = Tmap.make ~s ~pi in
    match Tmap.find_routing tm ~d:alg.Algorithm.dependences with
    | Some routing -> Linkcheck.predict alg tm routing = []
    | None -> false
  in
  let pool = Engine.Pool.create ~jobs:1 () in
  let show name alg =
    List.iter
      (fun (model, accept) ->
        Printf.printf "\n%s — %s:\n" name model;
        let front = Search.pareto_front ~pool ~accept alg ~k:2 in
        let tbl = Table.create [ "total time"; "processors"; "Pi"; "S" ] in
        List.iter
          (fun (p : Search.pareto_point) ->
            Table.add_row tbl
              [
                string_of_int p.total_time;
                string_of_int p.processors;
                Intvec.to_string p.pi;
                Intmat.to_string p.s;
              ])
          front;
        Table.print tbl)
      [
        ("Definition 2.2 (conflicts only)", fun _ _ -> true);
        ("plus link-collision freedom", collision_free alg);
      ]
  in
  show "matmul mu=4" (Matmul.algorithm ~mu:4);
  show "transitive closure mu=4" (Transitive_closure.algorithm ~mu:4);
  let alg4 = Matmul.algorithm ~mu:4 in
  let all = Search.all_optimal_schedules ~pool alg4 ~s:Matmul.paper_s in
  Printf.printf
    "\nAll time-optimal schedules for matmul mu=4 with the paper's S (Problem 2.1):\n";
  let tbl = Table.create [ "Pi"; "buffers per stream"; "total buffers" ] in
  List.iter
    (fun pi ->
      match Tmap.find_routing (Tmap.make ~s:Matmul.paper_s ~pi) ~d:alg4.Algorithm.dependences with
      | Some r ->
        Table.add_row tbl
          [
            Intvec.to_string pi;
            "(" ^ String.concat "," (Array.to_list (Array.map string_of_int r.Tmap.buffers)) ^ ")";
            string_of_int (Array.fold_left ( + ) 0 r.Tmap.buffers);
          ]
      | None -> ())
    all;
  Table.print tbl;
  (match Search.buffer_minimal ~pool alg4 ~s:Matmul.paper_s all with
  | Some (pi, r) ->
    Printf.printf
      "Buffer-minimal time-optimal schedule (paper's future-work criterion): Pi = %s, %d registers\n"
      (Intvec.to_string pi)
      (Array.fold_left ( + ) 0 r.Tmap.buffers)
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Performance benches (Bechamel).  Returns the fitted ns/run per bench
   so the perf driver can embed them in the JSON report; tracing stays
   off here — millions of micro-bench iterations would saturate the
   span buffer without telling us anything a single run does not. *)

let micro_bench () =
  section "Performance benches (Bechamel, ns/run)";
  let open Bechamel in
  let rng = Random.State.make [| 4242 |] in
  let random_t k n = Intmat.make k n (fun _ _ -> Zint.of_int (Random.State.int rng 15 - 7)) in
  let t35 = random_t 3 5 in
  let t_mm = Intmat.append_row Matmul.paper_s (Matmul.optimal_pi ~mu:4) in
  let mu3 = [| 4; 4; 4 |] in
  let alg_mm = Matmul.algorithm ~mu:4 in
  let mm_a = Matmul.random_matrix ~rng 5 and mm_b = Matmul.random_matrix ~rng 5 in
  let tm_mm = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu:4) in
  let alg_tc = Transitive_closure.algorithm ~mu:4 in
  let tm_tc = Tmap.make ~s:Transitive_closure.paper_s ~pi:(Transitive_closure.optimal_pi ~mu:4) in
  let big_a = Zint.pow (Zint.of_int 3) 400 and big_b = Zint.pow (Zint.of_int 7) 150 in
  let t5bit = Intmat.append_row Bit_matmul.example_s (iv [ 1; 7; 13; 3; 4 ]) in
  let mu5 = [| 2; 2; 2; 2; 2 |] in
  let tests =
    [
      Test.make ~name:"zint/divmod-big" (Staged.stage (fun () -> Zint.divmod big_a big_b));
      Test.make ~name:"hnf/min-abs-3x5" (Staged.stage (fun () -> Hnf.compute t35));
      Test.make ~name:"hnf/gcdext-3x5 (ablation-hnf-pivot)"
        (Staged.stage (fun () -> Hnf.compute ~strategy:Hnf.Gcdext t35));
      Test.make ~name:"conflict/box-oracle-matmul (ablation-conflict-check)"
        (Staged.stage (fun () -> Conflict.is_conflict_free ~mu:mu3 t_mm));
      Test.make ~name:"conflict/closed-form-matmul (ablation-conflict-check)"
        (Staged.stage (fun () -> Family.decide ~mu:mu3 t_mm));
      Test.make ~name:"conflict/box-oracle-5d"
        (Staged.stage (fun () -> Conflict.is_conflict_free ~mu:mu5 t5bit));
      Test.make ~name:"conflict/decide-5d"
        (Staged.stage (fun () -> Family.decide ~mu:mu5 t5bit));
      Test.make ~name:"optimize/procedure51-matmul-mu4 (ablation-optimizer)"
        (Staged.stage (fun () -> Procedure51.optimize alg_mm ~s:Matmul.paper_s));
      Test.make ~name:"optimize/ilp-form-matmul-mu4 (ablation-optimizer)"
        (Staged.stage (fun () -> Ilp_form.optimize alg_mm ~s:Matmul.paper_s));
      Test.make ~name:"optimize/procedure51-tc-mu4"
        (Staged.stage (fun () -> Procedure51.optimize alg_tc ~s:Transitive_closure.paper_s));
      Test.make ~name:"simulate/matmul-mu4-figure3"
        (Staged.stage (fun () -> Exec.run alg_mm (Matmul.semantics ~a:mm_a ~b:mm_b) tm_mm));
      Test.make ~name:"simulate/tc-mu4"
        (Staged.stage (fun () -> Exec.run alg_tc Dataflow.semantics tm_tc));
      Test.make ~name:"prop81/closed-form-u"
        (Staged.stage (fun () -> Prop81.compute ~s:Bit_matmul.example_s ~pi:(iv [ 1; 7; 13; 3; 4 ])));
      (* Large-mu conflict decision: the box oracle's work grows with
         the box volume; the LLL-lattice oracle does not. *)
      (let t_large = Intmat.append_row Matmul.paper_s (iv [ 1; 50; 1 ]) in
       let mu_large = [| 50; 50; 50 |] in
       Test.make ~name:"conflict/box-oracle-mu50 (ablation-lattice)"
         (Staged.stage (fun () -> Conflict.find_conflict ~mu:mu_large t_large)));
      (let t_large = Intmat.append_row Matmul.paper_s (iv [ 1; 50; 1 ]) in
       let mu_large = [| 50; 50; 50 |] in
       Test.make ~name:"conflict/lattice-oracle-mu50 (ablation-lattice)"
         (Staged.stage (fun () -> Conflict.find_conflict_lattice ~mu:mu_large t_large)));
      (let alg = Matmul.algorithm ~mu:4 in
       Test.make ~name:"space-opt/matmul-mu4-linear"
         (Staged.stage (fun () -> Space_opt.optimize alg ~pi:(Matmul.optimal_pi ~mu:4) ~k:2)));
      Test.make ~name:"frontend/parse-matmul"
        (Staged.stage (fun () ->
             Loopnest.parse
               "for i = 0..4, j = 0..4, k = 0..4 { C[i,j] = C[i,j] + A[i,k] * B[k,j] }"));
      (let basis =
         [ iv [ 23; -11; 7; 2 ]; iv [ 5; 19; -3; 8 ]; iv [ -9; 4; 31; -6 ] ]
       in
       Test.make ~name:"lll/reduce-3x4" (Staged.stage (fun () -> Lll.reduce basis)));
      (let alg5 = Bit_matmul.algorithm ~mu_word:2 ~mu_bit:2 in
       Test.make ~name:"optimize/5d-prop81-screen (ablation-5d-screen)"
         (Staged.stage (fun () ->
              Ilp_form.optimize_5d_to_2d ~max_objective:40 alg5 ~s:Bit_matmul.example_s)));
      (let alg5 = Bit_matmul.algorithm ~mu_word:2 ~mu_bit:2 in
       Test.make ~name:"optimize/5d-procedure51 (ablation-5d-screen)"
         (Staged.stage (fun () ->
              Procedure51.optimize ~max_objective:40 alg5 ~s:Bit_matmul.example_s)));
      (let alg8 = Matmul.algorithm ~mu:8 in
       let rng8 = Random.State.make [| 88 |] in
       let a8 = Matmul.random_matrix ~rng:rng8 9 and b8 = Matmul.random_matrix ~rng:rng8 9 in
       let tm8 = Tmap.make ~s:Matmul.paper_s ~pi:(Matmul.optimal_pi ~mu:8) in
       Test.make ~name:"simulate/matmul-mu8-729pts"
         (Staged.stage (fun () -> Exec.run alg8 (Matmul.semantics ~a:a8 ~b:b8) tm8)));
    ]
  in
  let grouped = Test.make_grouped ~name:"shang-fortes" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name res ->
      match Analyze.OLS.estimates res with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  let sorted = List.sort compare !rows in
  let tbl = Table.create [ "bench"; "ns/run" ] in
  List.iter
    (fun (name, est) -> Table.add_row tbl [ name; Printf.sprintf "%.0f" est ])
    sorted;
  Table.print tbl;
  sorted

(* ------------------------------------------------------------------ *)
(* Engine benches: 1 vs N domains on the same queries, each run twice
   after Engine.Cache.clear.  Search screens every candidate without
   the memo tables, so the second ("warm") run reads about the same as
   the first ("cold"); the pair stays to show that nothing carries
   over between runs.  Timed by hand rather than with Bechamel, one
   run per configuration.  Returns the JSON "engine" section of the
   bench report (docs/SCHEMA.md). *)

let engine_bench () =
  Printf.printf "\n== engine: uncached search, first vs repeated run, 1 vs N domains ==\n";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, 1000. *. (Unix.gettimeofday () -. t0))
  in
  let jobs_wide = Engine.Pool.jobs (Engine.Pool.create ()) in
  let pool1 = Engine.Pool.create ~jobs:1 () in
  let pool_wide = Engine.Pool.create () in
  let tbl = Table.create [ "query"; "configuration"; "ms" ] in
  let add query config ms = Table.add_row tbl [ query; config; Printf.sprintf "%.1f" ms ] in

  (* Pareto scan, matmul mu=6: the space-family scan dominates. *)
  let alg = Matmul.algorithm ~mu:6 in
  Engine.Cache.clear ();
  let cold1, t_cold1 = time (fun () -> Search.pareto_front ~pool:pool1 alg ~k:2) in
  add "pareto matmul mu=6" "engine, 1 domain, cold cache" t_cold1;
  let warm1, t_warm1 = time (fun () -> Search.pareto_front ~pool:pool1 alg ~k:2) in
  add "pareto matmul mu=6" "engine, 1 domain, warm cache" t_warm1;
  Engine.Cache.clear ();
  let coldn, t_coldn = time (fun () -> Search.pareto_front ~pool:pool_wide alg ~k:2) in
  add "pareto matmul mu=6"
    (Printf.sprintf "engine, %d domains, cold cache" jobs_wide)
    t_coldn;
  let warmn, t_warmn = time (fun () -> Search.pareto_front ~pool:pool_wide alg ~k:2) in
  add "pareto matmul mu=6"
    (Printf.sprintf "engine, %d domains, warm cache" jobs_wide)
    t_warmn;
  assert (cold1 = warm1 && cold1 = coldn && coldn = warmn);

  (* Schedule enumeration, transitive closure mu=8. *)
  let tc = Transitive_closure.algorithm ~mu:8 in
  let s = Transitive_closure.paper_s in
  Engine.Cache.clear ();
  let cold_s, t_cold_s = time (fun () -> Search.all_optimal_schedules ~pool:pool_wide tc ~s) in
  add "schedules tc mu=8"
    (Printf.sprintf "engine, %d domains, cold cache" jobs_wide)
    t_cold_s;
  let warm_s, t_warm_s = time (fun () -> Search.all_optimal_schedules ~pool:pool_wide tc ~s) in
  add "schedules tc mu=8"
    (Printf.sprintf "engine, %d domains, warm cache" jobs_wide)
    t_warm_s;
  assert (cold_s = warm_s);

  Table.print tbl;
  (* The pool's own cost per map: [jobs_wide] no-op tasks on a pool
     whose helpers are already up, median of 200 maps. *)
  let noops = List.init jobs_wide Fun.id in
  ignore (Engine.Pool.map pool_wide Fun.id noops);
  let map_ns =
    Array.init 200 (fun _ ->
        let t0 = Monotonic_clock.now () in
        ignore (Sys.opaque_identity (Engine.Pool.map pool_wide Fun.id noops));
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))
  in
  Array.sort compare map_ns;
  let pool_map_ns = map_ns.(100) in
  Printf.printf "pool: %.0f ns per map of %d no-op tasks (median of 200)\n" pool_map_ns
    jobs_wide;
  let stats = Engine.Cache.stats () in
  Printf.printf
    "cache: %d hits / %d misses (%d entries); warm/cold speedup: pareto %.1fx, schedules %.1fx\n"
    stats.Engine.Cache.hits stats.Engine.Cache.misses stats.Engine.Cache.entries
    (t_coldn /. Float.max 1e-3 t_warmn)
    (t_cold_s /. Float.max 1e-3 t_warm_s);
  let queries = stats.Engine.Cache.hits + stats.Engine.Cache.misses in
  Json.Obj
    [
      ("jobs", Json.Int jobs_wide);
      ("pool_map_ns", Json.Float pool_map_ns);
      ( "pareto",
        Json.Obj
          [
            ("cold_1_ms", Json.Float t_cold1);
            ("warm_1_ms", Json.Float t_warm1);
            ("cold_n_ms", Json.Float t_coldn);
            ("warm_n_ms", Json.Float t_warmn);
          ] );
      ( "schedules",
        Json.Obj
          [
            ("cold_n_ms", Json.Float t_cold_s);
            ("warm_n_ms", Json.Float t_warm_s);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int stats.Engine.Cache.hits);
            ("misses", Json.Int stats.Engine.Cache.misses);
            ("entries", Json.Int stats.Engine.Cache.entries);
            ( "hit_rate",
              if queries = 0 then Json.Null
              else
                Json.Float (float_of_int stats.Engine.Cache.hits /. float_of_int queries)
            );
          ] );
    ]

(* Serve benches: an in-process daemon on a Unix socket driven by the
   verified load generator — cold store, warm store (same process) and
   a post-restart pass over the reloaded journal.  The headline passes
   run the negotiated transport (binary by default) with pipelined
   connections; a fourth pass repeats the warm workload on v1 JSON
   lines so the report carries the cross-transport comparison.
   Returns the JSON "serve" section of the bench report
   (docs/SCHEMA.md). *)

let serve_bench ?(quick = false) ?(transport = Server.Wire.V2) () =
  Printf.printf "\n== serve: event-loop daemon, persistent store, verified load ==\n";
  let requests = if quick then 2000 else 20000 in
  let concurrency = 16 and distinct = 128 and jobs = 4 and pipeline = 32 in
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sf-bench-%d%s" (Unix.getpid ()) name)
  in
  let sock = tmp ".sock" and store_path = tmp ".store" in
  if Sys.file_exists store_path then Sys.remove store_path;
  let boot () =
    let cfg =
      {
        (Server.Daemon.default_config (Server.Daemon.Unix_sock sock)) with
        jobs = Some jobs;
        store_path = Some store_path;
      }
    in
    let d = Server.Daemon.create cfg in
    (d, Thread.create Server.Daemon.run d)
  in
  let shutdown (d, th) =
    Server.Daemon.initiate_drain d;
    Thread.join th
  in
  let hits_of d =
    match Server.Daemon.store d with
    | Some s -> (Server.Store.stats s).Server.Store.hits
    | None -> 0
  in
  let run_pass ?(transport = transport) ?(pipeline = pipeline) label server =
    let d, _ = server in
    let hits0 = hits_of d in
    let r =
      Server.Client.load (`Unix sock)
        { Server.Client.default_load with requests; concurrency; distinct; transport;
          pipeline }
    in
    let hit_rate = float_of_int (hits_of d - hits0) /. float_of_int requests in
    Printf.printf
      "%-12s %5d req (%s/%d)  p50 %6.2f ms  p95 %6.2f ms  %7.0f req/s  shed %d  \
       hit rate %.2f  disagreements %d\n"
      label requests r.Server.Client.transport pipeline r.Server.Client.p50_ms
      r.Server.Client.p95_ms r.Server.Client.rps r.Server.Client.shed hit_rate
      r.Server.Client.disagreements;
    assert (r.Server.Client.disagreements = 0);
    assert (r.Server.Client.errors = 0);
    ( r,
      Json.Obj
        [
          ("transport", Json.Str r.Server.Client.transport);
          ("pipeline", Json.Int pipeline);
          ("p50_ms", Json.Float r.Server.Client.p50_ms);
          ("p95_ms", Json.Float r.Server.Client.p95_ms);
          ("p99_ms", Json.Float r.Server.Client.p99_ms);
          ("requests_per_s", Json.Float r.Server.Client.rps);
          ( "shed_rate",
            Json.Float (float_of_int r.Server.Client.shed /. float_of_int requests) );
          ("hit_rate", Json.Float hit_rate);
        ] )
  in
  let server = boot () in
  let _, cold = run_pass "cold store" server in
  let _, warm = run_pass "warm store" server in
  (* Same warm workload, v1 JSON lines, unpipelined: the report keeps
     the apples-to-apples transport comparison next to the headline. *)
  let _, warm_json = run_pass ~transport:Server.Wire.V1 ~pipeline:1 "warm json" server in
  shutdown server;
  (* The journal must survive the restart: the first pass of the new
     process is already warm. *)
  let server = boot () in
  let d, _ = server in
  let loaded = match Server.Daemon.store d with
    | Some s -> (Server.Store.stats s).Server.Store.loaded
    | None -> 0
  in
  let _, restart = run_pass "post-restart" server in
  shutdown server;
  if Sys.file_exists store_path then Sys.remove store_path;
  Json.Obj
    [
      ("requests", Json.Int requests);
      ("concurrency", Json.Int concurrency);
      ("distinct", Json.Int distinct);
      ("jobs", Json.Int jobs);
      ("transport", Json.Str (Server.Wire.version_name transport));
      ("pipeline", Json.Int pipeline);
      ("cold", cold);
      ("warm", warm);
      ("warm_json", warm_json);
      ("restart", restart);
      ("store_loaded_at_restart", Json.Int loaded);
    ]

(* Chaos bench: the daemon under a seeded fault plan, driven by the
   retrying client.  The interesting numbers are the recovery-latency
   percentiles (requests that needed more than one attempt) next to
   the overall ones; the section also asserts the convergence
   contract — chaos must never trade correctness for latency.
   Returns the JSON "chaos" section of the bench report
   (docs/SCHEMA.md). *)

let chaos_bench ?(quick = false) () =
  Printf.printf "\n== chaos: daemon under seeded fault plan, retrying client ==\n";
  let requests = if quick then 200 else 1000 in
  let r =
    Cluster.Chaos.run { Cluster.Chaos.default_config with requests; rate = 0.08; seed = 42 }
  in
  Cluster.Chaos.(
    Printf.printf
      "%5d req  %d faults  %d worker deaths  %d retried\n\
       overall  p50 %6.2f ms  p95 %6.2f ms  p99 %6.2f ms\n\
       recovery p50 %6.2f ms  p95 %6.2f ms  max %6.2f ms\n\
       %s (fingerprint %s)\n"
      requests r.faults r.worker_deaths r.retried r.p50_ms r.p95_ms r.p99_ms
      r.recovery_p50_ms r.recovery_p95_ms r.recovery_max_ms
      (if r.converged then "converged" else "DIVERGED")
      r.fingerprint);
  assert r.converged;
  Cluster.Chaos.json_of_report r

(* Exec bench: the compiled multicore kernel over the scenario x dtype
   matrix.  Verification stays on (it is part of the contract — the
   section asserts it), and so do the movement checks, which run
   outside the timed sweep.  Per-cell timing is the best of a few
   kernel runs so the section's elapsed_ms leaves gate kernel
   regressions via `diff --section exec` (docs/SCHEMA.md). *)

let exec_bench ?(quick = false) () =
  Printf.printf "\n== exec: compiled kernel, scenario x dtype matrix ==\n";
  let specs =
    if quick then [ Scenario.scenario "matmul" ~mu:8; Scenario.scenario "tc" ~mu:8 ]
    else Scenario.default_scenarios
  in
  let reps = if quick then 2 else 3 in
  let pool = Engine.Pool.create () in
  let cells =
    List.concat_map
      (fun spec ->
        List.map
          (fun dtype ->
            let runs =
              List.init reps (fun _ ->
                  Scenario.run_cell ~pool spec dtype)
            in
            let best =
              List.fold_left
                (fun acc (c : Scenario.cell) ->
                  if c.Scenario.elapsed_s < acc.Scenario.elapsed_s then c else acc)
                (List.hd runs) (List.tl runs)
            in
            assert (Scenario.cell_ok best);
            best)
          Scenario.types)
      specs
  in
  List.iter
    (fun (c : Scenario.cell) ->
      Printf.printf "%-14s %-6s %8d cells  %9.4f ms  %8.4f GFLOP/s  %s\n"
        c.Scenario.spec.Scenario.name c.Scenario.dtype c.Scenario.cells
        (c.Scenario.elapsed_s *. 1000.)
        c.Scenario.gflops
        (if c.Scenario.verified then "ok" else "MISMATCH"))
    cells;
  Json.Arr
    (List.map
       (fun (c : Scenario.cell) ->
         Json.Obj
           [
             ( "name",
               Json.Str (c.Scenario.spec.Scenario.name ^ "." ^ c.Scenario.dtype) );
             ("cells", Json.Int c.Scenario.cells);
             ("elapsed_ms", Json.Float (c.Scenario.elapsed_s *. 1000.));
             ("gflops", Json.Float c.Scenario.gflops);
             ("verified", Json.Bool c.Scenario.verified);
           ])
       cells)

(* Cluster benches: the serving tier of docs/CLUSTER.md.  Two halves:

   - snapshot warm start: a journal of N verdict records opened by
     full replay vs the same records compacted into a hash-indexed
     snapshot and opened in O(1) reads.  The section asserts the
     ISSUE-9 acceptance gate (snapshot open >= 10x faster than
     replay open at the full record count).
   - shard scaling: the same verified load driven through an
     in-process router over 1, 2 and 4 daemon shards; the report
     carries req/s and p99 per width and `diff --section cluster`
     gates both.  Correctness stays asserted (zero disagreements,
     zero errors) — scaling never trades bytes for speed. *)

let cluster_bench ?(quick = false) () =
  Printf.printf "\n== cluster: snapshot warm start + router shard scaling ==\n";
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sf-bench-cluster-%d%s" (Unix.getpid ()) name)
  in
  (* -- snapshot open vs replay open ------------------------------- *)
  let records = if quick then 20_000 else 100_000 in
  let journal = tmp ".store" and snap = tmp ".snap" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ journal; snap ];
  let t = Intmat.of_ints [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ] in
  let entry =
    { Server.Store.conflict_free = true; full_rank = true;
      decided_by = "bench"; witness = None }
  in
  let s = Server.Store.open_ ~fsync_every:10_000 journal in
  for i = 1 to records do
    (* Distinct mu per record: every key is unique, as in a real
       journal grown by a fresh-instance workload. *)
    Server.Store.add s ~mu:[| i; (i mod 97) + 1; (i mod 89) + 1 |] t entry
  done;
  Server.Store.close s;
  let replay = Server.Store.open_ ~fsync_every:10_000 journal in
  let replay_stats = Server.Store.stats replay in
  assert (replay_stats.Server.Store.loaded = records);
  let replay_ms = replay_stats.Server.Store.open_ms in
  ignore (Server.Store.compact_to_snapshot replay ~snapshot:snap);
  Server.Store.close replay;
  let warm = Server.Store.open_ ~snapshot:snap journal in
  let warm_stats = Server.Store.stats warm in
  assert (warm_stats.Server.Store.provenance = "snapshot+tail");
  assert (warm_stats.Server.Store.snap_entries = records);
  let snapshot_ms = warm_stats.Server.Store.open_ms in
  (* The warm store still serves: spot-check a key through the index. *)
  assert (Server.Store.find warm ~mu:[| 1; 2; 2 |] t = Some entry);
  Server.Store.close warm;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ journal; snap ];
  let speedup = replay_ms /. Float.max 0.01 snapshot_ms in
  Printf.printf
    "snapshot warm start: %d records  replay open %.1f ms  snapshot open %.2f ms  \
     (%.0fx)\n"
    records replay_ms snapshot_ms speedup;
  if speedup < 10. then begin
    Printf.eprintf "FAIL: snapshot open speedup %.1fx < 10x\n" speedup;
    exit 1
  end;
  (* -- router shard scaling --------------------------------------- *)
  let requests = if quick then 1_000 else 4_000 in
  let concurrency = 8 and distinct = 64 in
  let width_pass shards =
    let shard_paths =
      List.init shards (fun i ->
          (tmp (Printf.sprintf "-s%d.sock" i), tmp (Printf.sprintf "-s%d.store" i)))
    in
    let daemons =
      List.map
        (fun (sock, store_path) ->
          if Sys.file_exists store_path then Sys.remove store_path;
          let cfg =
            {
              (Server.Daemon.default_config (Server.Daemon.Unix_sock sock)) with
              jobs = Some 2;
              store_path = Some store_path;
            }
          in
          let d = Server.Daemon.create cfg in
          (d, Thread.create Server.Daemon.run d))
        shard_paths
    in
    let rsock = tmp (Printf.sprintf "-r%d.sock" shards) in
    let specs =
      List.map
        (fun (sock, store_path) ->
          { Cluster.Router.primary = `Unix sock; follower = None;
            journal = Some store_path })
        shard_paths
    in
    let router =
      Cluster.Router.create
        {
          (Cluster.Router.default_config (Server.Daemon.Unix_sock rsock) specs) with
          pool_size = 2;
          health_interval_ms = 60_000;
        }
    in
    let rth = Thread.create Cluster.Router.run router in
    let r =
      Server.Client.load (`Unix rsock)
        { Server.Client.default_load with requests; concurrency; distinct;
          transport = Server.Wire.V2; pipeline = 8 }
    in
    Cluster.Router.initiate_drain router;
    Thread.join rth;
    List.iter
      (fun (d, th) ->
        Server.Daemon.initiate_drain d;
        Thread.join th)
      daemons;
    List.iter
      (fun (sock, store_path) ->
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ sock; store_path ])
      shard_paths;
    assert (r.Server.Client.disagreements = 0);
    assert (r.Server.Client.errors = 0);
    Printf.printf
      "%d shard%s  %5d req  p50 %6.2f ms  p99 %6.2f ms  %7.0f req/s  shed %d\n"
      shards (if shards = 1 then " " else "s") requests r.Server.Client.p50_ms
      r.Server.Client.p99_ms r.Server.Client.rps r.Server.Client.shed;
    Json.Obj
      [
        ("shards", Json.Int shards);
        ("p50_ms", Json.Float r.Server.Client.p50_ms);
        ("p99_ms", Json.Float r.Server.Client.p99_ms);
        ("requests_per_s", Json.Float r.Server.Client.rps);
        ( "shed_rate",
          Json.Float (float_of_int r.Server.Client.shed /. float_of_int requests) );
      ]
  in
  let widths = List.map width_pass [ 1; 2; 4 ] in
  Json.Obj
    [
      ( "snapshot",
        Json.Obj
          [
            ("records", Json.Int records);
            ("replay_open_ms", Json.Float replay_ms);
            ("snapshot_open_ms", Json.Float snapshot_ms);
            ("speedup", Json.Float speedup);
          ] );
      ("requests", Json.Int requests);
      ("widths", Json.Arr widths);
    ]

(* SLO benches: the gray-failure acceptance gate of docs/RESILIENCE.md,
   measured.  A three-pass {!Cluster.Chaos} SLO audit over a
   two-shard fleet — fault-free baseline, ambient latency faults with
   hedging, the same faults without — whose report carries the p99 of
   each pass and the audited bound (3x the baseline p99 with a 25 ms
   floor).  The section asserts the ISSUE-10 acceptance gate (hedged
   p99 under the bound while the unhedged pass demonstrably degrades,
   zero disagreements, zero lost acked writes) and `diff --section
   slo` gates the latencies (docs/SCHEMA.md). *)

let slo_bench ?(quick = false) () =
  Printf.printf "\n== slo: hedged vs unhedged p99 under gray latency faults ==\n";
  let requests = if quick then 300 else 600 in
  let cfg =
    {
      Cluster.Chaos.default_config with
      seed = 11;
      requests;
      classes = [ "latency" ];
      rate = 0.03;
      delay_ms = 50;
      topology = Fleet { Cluster.Chaos.default_fleet with shards = 2; slo = true };
    }
  in
  let r = Cluster.Chaos.run cfg in
  let slo =
    match r.slo with
    | Some s -> s
    | None -> failwith "slo bench: chaos report without slo section"
  in
  Printf.printf
    "%d req  baseline p99 %6.2f ms   hedged p50 %6.2f ms  p99 %6.2f ms   \
     unhedged p99 %7.2f ms\n"
    requests slo.baseline_p99_ms r.p50_ms slo.hedged_p99_ms slo.unhedged_p99_ms;
  Printf.printf
    "bound %6.2f ms (3x baseline, 25 ms floor)   hedges %d (%d won)   delays %d\n"
    slo.bound_ms r.hedges r.hedge_wins r.delays;
  if not r.converged then begin
    Printf.eprintf
      "FAIL: slo audit did not converge (hedged within bound: %b, unhedged \
       degraded: %b, disagreements %d, lost %d)\n"
      slo.hedged_within_bound slo.unhedged_degraded r.disagreements r.lost_writes;
    exit 1
  end;
  Json.Obj
    [
      ("requests", Json.Int requests);
      ("baseline_p99_ms", Json.Float slo.baseline_p99_ms);
      ("hedged_p50_ms", Json.Float r.p50_ms);
      ("hedged_p99_ms", Json.Float slo.hedged_p99_ms);
      ("unhedged_p99_ms", Json.Float slo.unhedged_p99_ms);
      ("bound_ms", Json.Float slo.bound_ms);
      ("hedges", Json.Int r.hedges);
      ("hedge_wins", Json.Int r.hedge_wins);
      ("delays", Json.Int r.delays);
    ]

(* Family benches: a structurally-repetitive mu-sweep — few distinct
   mapping matrices, many index-set sizes each, every (T, mu) pair
   fresh.  The concrete verdict cache keys on (T, mu) and so never
   hits; the family tier compiles each T once and decides the rest
   symbolically.  The section asserts the ISSUE-8 acceptance gates
   (family effective hit rate > 0.9 while the concrete cache alone
   scores < 0.1) and its numbers gate regressions via
   `diff --section family` (docs/SCHEMA.md, docs/FAMILIES.md). *)

let family_bench () =
  Printf.printf "\n== family: symbolic mu-sweep vs concrete verdict cache ==\n";
  Engine.Cache.clear ();
  let mat rows = Intmat.of_ints rows in
  (* All four family shapes that decide instances are represented:
     const-free, adjugate (both outcomes across the sweep), and a
     cascade whose kernel column always fits the box. *)
  let mats =
    [
      ("matmul linear (adjugate)", mat [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ]);
      ("tc linear (adjugate)", mat [ [ 0; 0; 1 ]; [ 5; 1; 1 ] ]);
      ("3x4 adjugate", mat [ [ 1; 0; 0; 1 ]; [ 0; 1; 0; 1 ]; [ 0; 0; 1; -1 ] ]);
      ("3x4 adjugate'", mat [ [ 1; 1; 0; 0 ]; [ 0; 1; 1; 0 ]; [ 0; 0; 1; 1 ] ]);
      ("3x3 const-free", mat [ [ 1; 1; -1 ]; [ 1; 4; 1 ]; [ 0; 1; 0 ] ]);
      ("2x4 cascade (kernel trapped)", mat [ [ 1; 0; 0; 0 ]; [ 0; 1; 0; 0 ] ]);
    ]
  in
  let sweep = 100 in
  let before = Obs.Metrics.snapshot () in
  let t0 = Unix.gettimeofday () in
  let queries = ref 0 in
  List.iter
    (fun (_, t) ->
      let n = Intmat.cols t in
      for i = 1 to sweep do
        (* mu.(0) = i keeps every instance of the sweep distinct, so
           the concrete (T, mu) cache cannot help. *)
        let mu = Array.init n (fun j -> if j = 0 then i else 1 + (i * (j + 2) mod 19)) in
        ignore (Analysis.check ~mu t);
        incr queries
      done)
    mats;
  let elapsed_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let after = Obs.Metrics.snapshot () in
  let delta name =
    Obs.Metrics.counter_value after name - Obs.Metrics.counter_value before name
  in
  let fam_hits = delta "family.hits" in
  let fam_misses = delta "family.misses" in
  let fam_residual = delta "family.residual" in
  let verdict_hits = delta "cache.analysis-verdict.hits" in
  let q = !queries in
  let rate x = float_of_int x /. float_of_int (max 1 q) in
  let family_rate = rate fam_hits and concrete_rate = rate verdict_hits in
  Printf.printf
    "%d queries over %d families in %.1f ms\n\
     family tier: %d decided, %d built, %d residual  (effective hit rate %.3f)\n\
     concrete verdict cache alone: %d hits  (hit rate %.3f)\n"
    q (List.length mats) elapsed_ms fam_hits fam_misses fam_residual family_rate
    verdict_hits concrete_rate;
  if family_rate <= 0.9 then begin
    Printf.eprintf "FAIL: family effective hit rate %.3f <= 0.9\n" family_rate;
    exit 1
  end;
  if concrete_rate >= 0.1 then begin
    Printf.eprintf "FAIL: concrete cache hit rate %.3f >= 0.1 (workload not fresh)\n"
      concrete_rate;
    exit 1
  end;
  Json.Obj
    [
      ("queries", Json.Int q);
      ("families", Json.Int fam_misses);
      ("hits", Json.Int fam_hits);
      ("residual", Json.Int fam_residual);
      ("verdict_cache_hits", Json.Int verdict_hits);
      ("family_hit_rate", Json.Float family_rate);
      ("concrete_hit_rate", Json.Float concrete_rate);
      ("elapsed_ms", Json.Float elapsed_ms);
    ]

(* ------------------------------------------------------------------ *)
(* The perf driver: micro benches (unless --quick) + engine benches,
   folded into one schema-versioned JSON report named after the git
   revision so successive runs form a trajectory. *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let perf ?(quick = false) ?out () =
  let micro = if quick then [] else micro_bench () in
  (* Trace only the engine benches: each phase runs once, so the span
     aggregate is a faithful per-phase time breakdown. *)
  Obs.Metrics.reset ();
  Obs.Trace.enable ();
  let engine = engine_bench () in
  Obs.Trace.disable ();
  let phases = Obs.Export.phases (Obs.Trace.aggregate (Obs.Trace.spans ())) in
  let family = family_bench () in
  let serve = serve_bench ~quick () in
  let chaos = chaos_bench ~quick () in
  let exec_section = exec_bench ~quick () in
  let cluster = cluster_bench ~quick () in
  let slo = slo_bench ~quick () in
  let rev = git_rev () in
  let path =
    match out with Some p -> p | None -> Printf.sprintf "BENCH_%s.json" rev
  in
  let report =
    Json.versioned ~command:"bench"
      [
        ("rev", Json.Str rev);
        ("quick", Json.Bool quick);
        ( "micro",
          Json.Arr
            (List.map
               (fun (name, est) ->
                 Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Float est) ])
               micro) );
        ("engine", engine);
        ("family", family);
        ("serve", serve);
        ("chaos", chaos);
        ("exec", exec_section);
        ("cluster", cluster);
        ("slo", slo);
        ("phases", phases);
      ]
  in
  Obs.Export.write_file path report;
  Printf.printf "bench report written to %s\n" path

let bench_diff ?section ~threshold old_file new_file =
  match (Json.parse_file old_file, Json.parse_file new_file) with
  | Ok baseline, Ok current ->
    let report =
      Benchstat.compare_runs ?section ~threshold_pct:threshold ~baseline ~current ()
    in
    (match section with
    | Some s -> Printf.printf "section %s:\n" s
    | None -> ());
    Format.printf "%a@." Benchstat.pp report;
    if report.Benchstat.regressions <> [] then exit 1
  | Error e, _ | _, Error e ->
    Printf.eprintf "bench diff: %s\n" e;
    exit 2

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [e1..e16 | engine | family | serve [--transport json|binary] | \
     chaos | exec | cluster | slo | quick | perf [--quick] [--out FILE] | \
     diff OLD NEW [--threshold PCT] [--section NAME]]\n";
  exit 2

let parse_perf_args rest =
  let rec go quick out = function
    | [] -> perf ~quick ?out ()
    | "--quick" :: tl -> go true out tl
    | "--out" :: path :: tl -> go quick (Some path) tl
    | arg :: tl when String.length arg > 6 && String.sub arg 0 6 = "--out=" ->
      go quick (Some (String.sub arg 6 (String.length arg - 6))) tl
    | _ -> usage ()
  in
  go false None rest

let parse_diff_args rest =
  let rec go threshold section files = function
    | [] -> (
      match List.rev files with
      | [ old_file; new_file ] -> bench_diff ?section ~threshold old_file new_file
      | _ -> usage ())
    | "--threshold" :: pct :: tl -> (
      match float_of_string_opt pct with
      | Some t -> go t section files tl
      | None -> usage ())
    | "--section" :: name :: tl -> go threshold (Some name) files tl
    | arg :: tl -> go threshold section (arg :: files) tl
  in
  go 20. None [] rest

let parse_serve_args rest =
  let rec go transport = function
    | [] -> ignore (serve_bench ~transport ())
    | "--transport" :: name :: tl -> (
      match Server.Wire.version_of_name name with
      | Some v -> go v tl
      | None -> usage ())
    | _ -> usage ()
  in
  go Server.Wire.V2 rest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
    List.iter (fun (_, f) -> f ()) experiments;
    perf ()
  | [ "quick" ] -> List.iter (fun (_, f) -> f ()) experiments
  | "perf" :: rest -> parse_perf_args rest
  | "diff" :: rest -> parse_diff_args rest
  | "serve" :: rest -> parse_serve_args rest
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt (String.lowercase_ascii name) experiments with
        | Some f -> f ()
        | None ->
          if name = "engine" then ignore (engine_bench ())
          else if name = "family" then ignore (family_bench ())
          else if name = "chaos" then ignore (chaos_bench ())
          else if name = "exec" then ignore (exec_bench ())
          else if name = "cluster" then ignore (cluster_bench ())
          else if name = "slo" then ignore (slo_bench ())
          else
            Printf.eprintf
              "unknown experiment %s (e1..e16, engine, family, serve, chaos, exec, \
               cluster, slo, perf, diff, quick)\n"
              name)
      names
