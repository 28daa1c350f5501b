(* The two in-process workloads.

   search-mix: a fixed list of Search queries on a pool of the
   runtime's default width, each from a cleared Engine.Cache, checked
   against golden answers computed with Search at width 1.  Enumeration,
   the Space_opt screens, the cached Analysis.check and the pool fan-out
   do the work.

   exec-large: the compiled kernel at mu = 64 under the paper's optimal
   schedule, over int and float cells, every run checked cell for cell
   against the reference evaluator outside the timed interval. *)

open Serving

(* ------------------------------ search-mix ---------------------------- *)

type query = { name : string; run : Engine.Pool.t -> string }

let builtin name mu = Server.Handlers.builtin_algorithm name mu

let vec v = Intvec.to_string v
let mat m = String.concat ";" (List.map (fun r -> String.concat "," (List.map string_of_int r)) (Intmat.to_ints m))
let ints a = String.concat "," (List.map string_of_int (Array.to_list a))

let pareto name mu =
  {
    name = Printf.sprintf "pareto-%s-%d" name mu;
    run =
      (fun pool ->
        let alg, _ = builtin name mu in
        let front = Search.pareto_front ~pool alg ~k:2 in
        (* [Fun.flip] types the list first, so the point fields resolve
           from Search's result type wherever that type is declared. *)
        String.concat ""
          (Fun.flip List.map front (fun p ->
               Printf.sprintf "t=%d pes=%d pi=%s s=%s\n" p.total_time p.processors (vec p.pi) (mat p.s))));
  }

let schedules name mu =
  {
    name = Printf.sprintf "schedules-%s-%d" name mu;
    run =
      (fun pool ->
        let alg, s = builtin name mu in
        let s = Option.get s in
        String.concat "" (List.map (fun pi -> vec pi ^ "\n") (Search.all_optimal_schedules ~pool alg ~s)));
  }

let buffers name mu =
  {
    name = Printf.sprintf "buffers-%s-%d" name mu;
    run =
      (fun pool ->
        let alg, s = builtin name mu in
        match Search.best_by_buffers ~pool alg ~s:(Option.get s) with
        | Some (pi, rt) -> Printf.sprintf "pi=%s hops=%s buffers=%s\n" (vec pi) (ints rt.Tmap.hops) (ints rt.Tmap.buffers)
        | None -> "none\n");
  }

let queries =
  [ pareto "matmul" 6; pareto "tc" 6; schedules "matmul" 8; schedules "tc" 10; schedules "lu" 6;
    schedules "convolution" 6; buffers "matmul" 8 ]

let golden_file dir q = Filename.concat dir (q.name ^ ".txt")

(* The golden answers: every query at width 1. *)
let write_golden dir =
  let pool = Engine.Pool.create ~jobs:1 () in
  List.iter
    (fun q ->
      Engine.Cache.clear ();
      let oc = open_out_bin (golden_file dir q) in
      output_string oc (q.run pool);
      close_out oc)
    queries

(* Ops, timed seconds, the same in reference seconds (at the host's
   speed sampled before each call, Calib), and the machine's busy and
   stolen CPU seconds (Sut.host_cpu) across the timed calls. *)
type tally = { mutable ops : int; mutable secs : float; mutable ref_secs : float; mutable busy : float; mutable steal : float }

let tally () = { ops = 0; secs = 0.; ref_secs = 0.; busy = 0.; steal = 0. }

(* Ops per reference second of the time the host granted: the timed
   reference seconds are scaled by the share of the CPU time the
   machine asked for that was not stolen. *)
let granted_rate t = float_of_int t.ops /. (t.ref_secs *. Sut.granted (0., 0.) (t.busy, t.steal))

(* Timed calls, grouped into slices that each hold the same calls (a
   whole search mix, a whole kernel round), each slice with its granted
   rate; and the speed samples taken for them. *)
type slices = { slice : tally; total : tally; mutable rates : float list; mutable speeds : float list }

let slices () = { slice = tally (); total = tally (); rates = []; speeds = [] }

(* Sample the host's speed for the calls that follow. *)
let sample_speed s =
  let v = Calib.speed () in
  s.speeds <- v :: s.speeds;
  v

let close_slice s =
  if s.slice.ops > 0 then s.rates <- granted_rate s.slice :: s.rates;
  s.slice.ops <- 0;
  s.slice.secs <- 0.;
  s.slice.ref_secs <- 0.;
  s.slice.busy <- 0.;
  s.slice.steal <- 0.

(* Run [f], which does [n] ops, timed into [s] at host speed [speed];
   returns its result and its wall time. *)
let timed_call s ~speed n f =
  let b0, s0 = Sut.host_cpu () in
  let r, dt = Sample.time f in
  let b1, s1 = Sut.host_cpu () in
  List.iter
    (fun t ->
      t.ops <- t.ops + n;
      t.secs <- t.secs +. dt;
      t.ref_secs <- t.ref_secs +. (dt *. speed);
      t.busy <- t.busy +. (b1 -. b0);
      t.steal <- t.steal +. (s1 -. s0))
    [ s.slice; s.total ];
  (r, dt)

(* Median slice rate in ops per reference second. *)
let rate s =
  close_slice s;
  Sample.median (Array.of_list s.rates)

let host s =
  [ ("host.ops_per_wall_s", Sample.ratio (float_of_int s.total.ops) s.total.secs, "1/s");
    ("host.granted_share", Sut.granted (0., 0.) (s.total.busy, s.total.steal), "ratio");
    ("host.speed", Sample.median (Array.of_list s.speeds), "ratio") ]

(* [f ()], which returns a result and seconds, with the seconds in
   reference seconds at the host's speed sampled right before it. *)
let at_speed f =
  let speed = Calib.speed () in
  let r, secs = f () in
  (r, secs *. speed)

(* Peak RSS is read after a fixed number of mixes, not at the end of a
   window whose length in mixes depends on speed. *)
let rss_mixes = 20

type search_run = {
  sl : slices;
  mutable mixes : int;
  mutable bad : int;
  mutable clean_starts : bool;
  mutable cpu : float;  (** Reference seconds. *)
  mutable busy : float;
  mutable check_cpu : float;  (** Reference seconds. *)
  mutable rss : float option;  (** Peak RSS after [rss_mixes] mixes. *)
  per_query : (string, float list) Hashtbl.t;  (** ms *)
}

(* Run whole mixes, at least one, until [seconds] have passed: only the
   search calls are timed; cache clearing, the golden comparison and
   the speed sample before each counted mix are not. *)
let run_mixes ~pool ~golden ~seconds ~count =
  let r =
    { sl = slices (); mixes = 0; bad = 0; clean_starts = true; cpu = 0.; busy = 0.; check_cpu = 0.; rss = None;
      per_query = Hashtbl.create 8 }
  in
  let t_end = Sample.now () +. seconds in
  let continue = ref true in
  while !continue do
    let speed = if count then sample_speed r.sl else 1. in
    List.iter
      (fun q ->
        Engine.Cache.clear ();
        if Engine.Cache.stats () <> { Engine.Cache.hits = 0; misses = 0; entries = 0 } then r.clean_starts <- false;
        let c0 = Sample.cpu_self () in
        let answer, dt = timed_call r.sl ~speed 1 (fun () -> q.run pool) in
        let c1 = Sample.cpu_self () in
        let ok = answer = List.assoc q.name golden in
        r.check_cpu <- r.check_cpu +. ((Sample.cpu_self () -. c1) *. speed);
        if count then begin
          if not ok then r.bad <- r.bad + 1;
          r.cpu <- r.cpu +. ((c1 -. c0) *. speed);
          r.busy <- r.busy +. dt;
          Hashtbl.replace r.per_query q.name ((1e3 *. dt) :: Option.value ~default:[] (Hashtbl.find_opt r.per_query q.name))
        end
        else if not ok then failwith ("search-mix: warm-up answer differs from golden for " ^ q.name))
      queries;
    close_slice r.sl;
    r.mixes <- r.mixes + 1;
    if r.mixes = rss_mixes then r.rss <- Some (Sut.self_peak_rss_mb ());
    continue := Sample.now () < t_end
  done;
  r

(* The warm-up pass of a set-up, in mixes. *)
let warmup_mixes = 3

let search_mix ~golden_dir ctx =
  let golden = List.map (fun q -> (q.name, Sut.read_file (golden_file golden_dir q))) queries in
  let setup () =
    at_speed (fun () ->
        let t0 = Sample.now () and h0 = Sut.host_cpu () in
        let pool = Engine.Pool.create () in
        for _ = 1 to warmup_mixes do
          ignore (run_mixes ~pool ~golden ~seconds:0. ~count:false)
        done;
        (pool, granted_since t0 h0))
  in
  let setup_times = List.init 8 (fun _ -> snd (setup ())) in
  let pool, last = setup () in
  let r, cache = Layers.cache_shares_of (fun () -> run_mixes ~pool ~golden ~seconds:ctx.seconds ~count:true) in
  let ops = r.sl.total.ops in
  let e2e =
    [ ("ops_per_s", rate r.sl, "1/s");
      ("cpu_us_per_op", 1e6 *. Sample.ratio r.cpu (float_of_int ops), "us");
      ("peak_rss_mb", (match r.rss with Some m -> m | None -> Sut.self_peak_rss_mb ()), "MB");
      ("setup_s", Sample.median (Array.of_list (last :: setup_times)), "s") ]
  in
  let guards = [ ("search-mix: Engine.Cache.stats is empty at the start of each query", r.clean_starts) ] in
  let layers () =
    let per_query =
      List.concat_map
        (fun q -> Sample.summary ("engine.search." ^ q.name ^ ".ms") ~unit_:"ms" (Array.of_list (Hashtbl.find r.per_query q.name)))
        queries
    in
    let part = max 1. (ctx.seconds /. 8.) in
    let seq = run_mixes ~pool:(Engine.Pool.create ~jobs:1 ()) ~golden ~seconds:part ~count:true in
    Obs.Trace.enable ();
    let traced = run_mixes ~pool ~golden ~seconds:part ~count:true in
    Obs.Trace.disable ();
    (* One traced mix at width 1: the share of search time spent inside
       analysis.check (no overlapping spans at width 1). *)
    Obs.Trace.enable ();
    let one = run_mixes ~pool:(Engine.Pool.create ~jobs:1 ()) ~golden ~seconds:0. ~count:true in
    Obs.Trace.disable ();
    let in_check =
      List.fold_left
        (fun acc (name, _, total) -> if name = "analysis.check" then acc +. total else acc)
        0. (Obs.Trace.aggregate (Obs.Trace.spans ()))
    in
    Obs.Trace.clear ();
    let insts = stream ~seed:ctx.seed ~from:0 4096 in
    let expected = Array.map verdict insts in
    ( [ ("gen.cpu_us_per_op", 1e6 *. Sample.ratio r.check_cpu (float_of_int ops), "us");
        ("engine.pool.speedup", Sample.ratio (rate r.sl) (rate seq.sl), "ratio");
        ("engine.analysis.time_share", Sample.ratio in_check one.busy, "ratio");
        ("trace.overhead", 1. -. Sample.ratio (rate traced.sl) (rate r.sl), "ratio") ]
      @ cache @ per_query,
      Layers.replay ~expected:(fun id -> expected.(id)) insts @ snd (Layers.analysis insts) )
  in
  let layers, replayed = if ctx.trace then layers () else ([], []) in
  let layers = host r.sl @ layers in
  { attempted = ops; failed = r.bad; guards; e2e; layers; replayed }

(* ------------------------------ exec-large ---------------------------- *)

let exec_mu = 64

(* One scenario x dtype cell: its compiled plan, semantics and reference
   values, the latter in [Index_set.iter] order, with the dtype
   hidden. *)
type cell =
  | Cell : {
      name : string;
      alg : Algorithm.t;
      plan : Kernel.plan;
      sem : 'v Algorithm.semantics;
      reference : 'v array;
    }
      -> cell

(* The cells of a run's [lookup] that differ from [reference], in
   [Index_set.iter] order, and the number compared. *)
let mismatches (type v) (sem : v Algorithm.semantics) index_set (reference : v array) (lookup : int array -> v) =
  let k = ref 0 and bad = ref 0 in
  Index_set.iter
    (fun j ->
      if not (sem.Algorithm.equal_value (lookup j) reference.(!k)) then incr bad;
      incr k)
    index_set;
  (!bad, !k)

type exec_setup = { cells : cell list; times : (string * float) list }

let exec_setup ~seed ~pool =
  let times = ref [] in
  let timed name f =
    let r, dt = Sample.time f in
    times := (name, dt) :: !times;
    r
  in
  let compile algorithm =
    let alg, tm = Scenario.instantiate (Scenario.scenario algorithm ~mu:exec_mu) in
    (alg, timed ("systolic.kernel." ^ algorithm ^ ".compile") (fun () -> Kernel.compile alg tm))
  in
  let make (type v) name alg plan (sem : v Algorithm.semantics) =
    let reference =
      timed ("systolic.kernel." ^ name ^ ".reference") (fun () ->
          let value = Algorithm.evaluate_all alg sem in
          Array.of_list (List.map value (Index_set.to_list alg.Algorithm.index_set)))
    in
    Cell { name; alg; plan; sem; reference }
  in
  let ma, mp = compile "matmul" in
  let ta, tp = compile "tc" in
  let cells =
    [ make "matmul-int" ma mp (Scenario.matmul_semantics (module Scenario.Int_type) ~mu:exec_mu ~seed);
      make "matmul-float" ma mp (Scenario.matmul_semantics (module Scenario.Float_type) ~mu:exec_mu ~seed);
      make "tc-int" ta tp (Scenario.tc_semantics (module Scenario.Int_type));
      make "tc-float" ta tp (Scenario.tc_semantics (module Scenario.Float_type)) ]
  in
  (* Warm-up: one verified run of every cell. *)
  List.iter
    (fun (Cell c) ->
      timed ("systolic.kernel." ^ c.name ^ ".warmup") (fun () ->
          let res = Kernel.run ~pool c.plan c.sem in
          if fst (mismatches c.sem c.alg.Algorithm.index_set c.reference res.Kernel.lookup) > 0 then
            failwith ("exec-large: warm-up run of " ^ c.name ^ " differs from the reference")))
    cells;
  { cells; times = List.rev !times }

let exec_large ctx =
  let pool = Engine.Pool.create () in
  let setup () =
    Gc.compact ();
    at_speed (fun () ->
        let t0 = Sample.now () and h0 = Sut.host_cpu () in
        let s = exec_setup ~seed:ctx.seed ~pool in
        ((s, Sample.now () -. t0), granted_since t0 h0))
  in
  let rec boot k acc =
    let (s, wall), dt = setup () in
    if k = 1 then (s, wall, dt :: acc) else boot (k - 1) (dt :: acc)
  in
  let s, last_wall, setup_times = boot 3 [] in
  let sl = slices () in
  let compared = ref 0 and bad = ref 0 and cpu = ref 0. and verify_cpu = ref 0. in
  let per_cell = Hashtbl.create 8 and parallel_levels = Hashtbl.create 8 in
  let rss = ref None in
  (* One round: the host's speed is sampled, every cell runs, timed,
     then every result is verified.  Verifying allocates; the
     collection at the start of the next round keeps that cost out of
     the timed calls. *)
  let run_round () =
    Gc.full_major ();
    let speed = sample_speed sl in
    let verifications =
      List.map
        (fun (Cell c) ->
          let c0 = Sample.cpu_self () in
          let res, dt = timed_call sl ~speed (Kernel.cells c.plan) (fun () -> Kernel.run ~pool c.plan c.sem) in
          cpu := !cpu +. ((Sample.cpu_self () -. c0) *. speed);
          fun () ->
            let c1 = Sample.cpu_self () in
            let (wrong, n), verify_s =
              Sample.time (fun () -> mismatches c.sem c.alg.Algorithm.index_set c.reference res.Kernel.lookup)
            in
            verify_cpu := !verify_cpu +. ((Sample.cpu_self () -. c1) *. speed);
            compared := !compared + n;
            bad := !bad + wrong;
            Hashtbl.replace parallel_levels c.name res.Kernel.parallel_levels;
            Hashtbl.replace per_cell c.name
              ((dt, dt /. float_of_int (Kernel.levels c.plan), verify_s)
              :: Option.value ~default:[] (Hashtbl.find_opt per_cell c.name)))
        s.cells
    in
    close_slice sl;
    List.iter (fun verify -> verify ()) verifications
  in
  let (), cache =
    Layers.cache_shares_of (fun () ->
        let t_end = Sample.now () +. ctx.seconds in
        while Sample.now () < t_end do
          run_round ();
          if !rss = None then rss := Some (Sut.self_peak_rss_mb ())
        done)
  in
  let points = sl.total.ops in
  let e2e =
    [ ("ops_per_s", rate sl, "1/s");
      ("cpu_us_per_op", 1e6 *. Sample.ratio !cpu (float_of_int points), "us");
      ("peak_rss_mb", Option.get !rss, "MB");
      ("setup_s", Sample.median (Array.of_list setup_times), "s") ]
  in
  let guards = [ ("exec-large: every run verified cell for cell", !compared = points) ] in
  let layers () =
    let split = List.map (fun (name, dt) -> (name ^ "_ms", 1e3 *. dt, "ms")) s.times in
    let setup_sum = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. s.times in
    let runs =
      List.concat_map
        (fun (Cell c) ->
          let samples = Hashtbl.find per_cell c.name in
          let series name scale unit_ pick =
            Sample.summary ("systolic.kernel." ^ c.name ^ "." ^ name) ~unit_ (Array.of_list (List.map (fun x -> scale *. pick x) samples))
          in
          series "run_ms" 1e3 "ms" (fun (run, _, _) -> run)
          @ series "level_us" 1e6 "us" (fun (_, level, _) -> level)
          @ series "verify_ms" 1e3 "ms" (fun (_, _, verify) -> verify)
          @ [ ("systolic.kernel." ^ c.name ^ ".parallel_levels", float_of_int (Hashtbl.find parallel_levels c.name), "count") ])
        s.cells
    in
    (* Traced pass: the library's own exec.* spans on. *)
    Obs.Trace.enable ();
    let traced = slices () in
    let t_end = Sample.now () +. (ctx.seconds /. 4.) in
    while Sample.now () < t_end do
      Gc.full_major ();
      let speed = sample_speed traced in
      List.iter
        (fun (Cell c) -> ignore (timed_call traced ~speed (Kernel.cells c.plan) (fun () -> Kernel.run ~pool c.plan c.sem)))
        s.cells;
      close_slice traced
    done;
    Obs.Trace.disable ();
    Obs.Trace.clear ();
    let insts = stream ~seed:ctx.seed ~from:0 4096 in
    let expected = Array.map verdict insts in
    ( split
      @ [ ("systolic.kernel.setup_parts_s", setup_sum, "s");
          ("systolic.kernel.setup_last_s", last_wall, "s");
          ("gen.cpu_us_per_op", 1e6 *. Sample.ratio !verify_cpu (float_of_int points), "us");
          ("trace.overhead", 1. -. Sample.ratio (rate traced) (rate sl), "ratio") ]
      @ cache @ runs,
      Layers.replay ~expected:(fun id -> expected.(id)) insts @ snd (Layers.analysis insts) )
  in
  let layers, replayed = if ctx.trace then layers () else ([], []) in
  let layers = host sl @ layers in
  { attempted = points; failed = !bad; guards; e2e; layers; replayed }
