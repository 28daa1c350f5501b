(* The two serving workloads.  Each drives the CLI's own [serve] (and
   [route]) processes, started in their default configuration, through
   one pipelined v2 connection (see Loadgen).

   routed-hot: two shards behind one router, restarted over journals an
   untimed prep pass filled with real verdicts; the timed phase cycles a
   working set already resident on its shards.  The router hop, the
   wire codec, the shard event loop and store lookups do all the work.

   serve-fresh: one daemon on an empty store; every request is the next
   instance of the seeded stream, so the conflict-freedom cascade,
   family build, batcher, pool, singleflight and journal appends do the
   work. *)

module P = Server.Protocol

type ctx = { cli : string; seed : int; seconds : float; trace : bool }

type outcome = {
  attempted : int;
  failed : int;
  guards : (string * bool) list;
  e2e : Layers.metric list;
  layers : Layers.metric list;  (** Measured on the workload itself. *)
  replayed : Layers.metric list;
      (** Measured by replaying instances through a layer in process
          (Layers.replay, Layers.analysis). *)
}

let window = 32
let slice_s = 0.5
let setups = 9
let size = 4

let stream ~seed ~from n = Array.init n (fun i -> Check.Gen.ith ~seed ~size (from + i))

let verdict (i : Check.Instance.t) = P.wire_of_verdict (Analysis.check ~mu:i.mu i.tmat)

(* The encoded analyze request (wire id [i]) and the reference verdict
   of each instance [i] of the stream [0, n), in chunks split across the
   default pool's domains (untimed prep).  Neither the instances nor
   the caches Analysis.check fills are kept past their chunk: over a
   long stream they would hold most of a gigabyte. *)
let requests ~seed n =
  let pool = Engine.Pool.create () in
  let k = Engine.Pool.jobs pool and chunk = 16_384 in
  let part lo hi c =
    let lo' = lo + (c * (hi - lo) / k) and hi' = lo + ((c + 1) * (hi - lo) / k) in
    Array.init (hi' - lo') (fun i ->
        let inst = Check.Gen.ith ~seed ~size (lo' + i) in
        (Loadgen.encode_analyze ~id:(lo' + i) inst, verdict inst))
  in
  let chunks =
    List.init ((n + chunk - 1) / chunk) (fun j ->
        let lo = j * chunk in
        let done_ = Array.concat (Engine.Pool.map pool (part lo (min n (lo + chunk))) (List.init k Fun.id)) in
        Engine.Cache.clear ();
        done_)
  in
  let all = Array.concat chunks in
  (Array.map fst all, Array.map snd all)

let key (i : Check.Instance.t) = Server.Store.key_string ~mu:i.mu i.tmat

let trace_flags name = [ "--format"; "json"; "--metrics"; "--trace"; name ^ ".trace.json" ]

let serve ctx ~traced name =
  let argv =
    [ ctx.cli; "serve"; "--socket"; name ^ ".sock"; "--store"; name ^ ".journal" ]
    @ if traced then trace_flags name else []
  in
  let pid = Sut.spawn ~name (Array.of_list argv) in
  Sut.wait_for_socket ~pid (name ^ ".sock");
  pid

let open_gen sock =
  let c = Loadgen.connect sock in
  Loadgen.hello_v2 c;
  c

(* A timed phase over [pids].  Every slice boundary drains the window
   and samples the host's speed (Calib) with the system idle; each
   slice's time and each process's CPU in it are then counted in
   reference seconds at the speed sampled right before the slice. *)
type phase = {
  r : Loadgen.result;
  rates : float array;     (** Verified ops per reference second, per slice. *)
  cpu : float array;       (** Per-process CPU across the window, reference seconds. *)
  gen_cpu : float;         (** This process's (the generator's), the same way. *)
  window_ops : int;        (** Verified ops in the window. *)
  speed : float;           (** Median speed sample. *)
}

(* Peak RSS is read after a fixed number of timed ops, so a faster
   system that stores more keys in its window does not read as
   heavier. *)
let rss_mark = 10_000

let timed ?at_mark ~pids ~seconds ~trace c ~count ~frame ~expect =
  let snaps = ref [] and speeds = ref [] and pause_cpu = ref 0. in
  let on_slice () = snaps := Array.of_list (Sample.cpu_self () :: List.map Sut.cpu_s pids) :: !snaps in
  (* The generator's CPU in pauses after the first snapshot is the
     speed sample's, not the generator's. *)
  let pause () =
    let c0 = Sample.cpu_self () in
    speeds := Calib.speed () :: !speeds;
    if !snaps <> [] then pause_cpu := !pause_cpu +. (Sample.cpu_self () -. c0)
  in
  let r = Loadgen.drive ~mark:rss_mark ?at_mark ~pause c ~window ~count ~frame ~expect ~seconds ~slice_s ~trace ~on_slice in
  (* Oldest first: slice i runs from snapshot i to i + 1, after speed
     sample i. *)
  let slices = Array.of_list (List.rev r.Loadgen.slices) in
  let snaps = Array.of_list (List.rev !snaps) and speeds = Array.of_list (List.rev !speeds) in
  let cpu = Array.make (Array.length snaps.(0)) 0. in
  Array.iteri
    (fun i _ -> Array.iteri (fun k c -> cpu.(k) <- cpu.(k) +. ((c -. snaps.(i).(k)) *. speeds.(i))) snaps.(i + 1))
    slices;
  let rates =
    Array.mapi (fun i (sl : Loadgen.slice) -> float_of_int sl.ops /. (sl.secs *. sl.granted *. speeds.(i))) slices
  in
  let window_ops, _ = Loadgen.window r in
  let speed = Sample.median speeds in
  { r; rates; cpu = Array.sub cpu 1 (Array.length cpu - 1); gen_cpu = cpu.(0) -. (!pause_cpu *. speed); window_ops;
    speed }

(* CPU microseconds per verified op of a phase, from reference CPU
   seconds. *)
let cpu_per_op (p : phase) secs = 1e6 *. Sample.ratio secs (float_of_int p.window_ops)

(* Seconds since [t0] that the host granted, from a [Sut.host_cpu]
   reading [h0] taken at [t0]. *)
let granted_since t0 h0 = (Sample.now () -. t0) *. Sut.granted h0 (Sut.host_cpu ())

(* A booted system: the generator's connection, the SUT's pids, and
   the set-up time it took. *)
type system = { c : Loadgen.conn; pids : int list; setup_s : float }

(* Boot [setups] times, each to the end of its warm-up pass.  The
   earlier boots only time set-up and are stopped at once; the last one
   runs the timed phase.  Returns it and the median set-up time in
   reference seconds, at the host's speed sampled before each boot. *)
let boot ~start ~stop =
  let start () =
    let speed = Calib.speed () in
    let sys = start ~traced:false in
    (sys, sys.setup_s *. speed)
  in
  let earlier =
    List.init (setups - 1) (fun _ ->
        let sys, t = start () in
        stop sys;
        t)
  in
  let sys, t = start () in
  (sys, Sample.median (Array.of_list (t :: earlier)))

(* The timed phase on a booted system, with each daemon's [stats] read
   before and after it. *)
type measured = {
  p : phase;
  delta : string list -> float;  (** Change of a stats counter, summed over daemons. *)
  rss : float;                   (** Peak RSS of the SUT processes, summed, at [rss_mark]. *)
  open_ms : float;               (** Mean store open time of the daemons. *)
  setup_s : float;
}

let measure ~daemons ~sys ~setup_s ~seconds ~count ~frame ~expect =
  let direct = List.map (fun d -> Loadgen.connect (d ^ ".sock")) daemons in
  let before = List.map Loadgen.stats direct in
  let read_rss () = List.fold_left (fun acc pid -> acc +. Sut.peak_rss_mb pid) 0. sys.pids in
  let rss = ref None in
  let p =
    timed ~at_mark:(fun () -> rss := Some (read_rss ())) ~pids:sys.pids ~seconds ~trace:false sys.c ~count ~frame
      ~expect
  in
  let after = List.map Loadgen.stats direct in
  List.iter Loadgen.close direct;
  let delta path = List.fold_left2 (fun acc a b -> acc +. Loadgen.field a path -. Loadgen.field b path) 0. after before in
  let rss = match !rss with Some r -> r | None -> read_rss () in
  let open_ms = Sample.mean (Array.of_list (List.map (fun b -> Loadgen.field b [ "store"; "open_ms" ]) before)) in
  { p; delta; rss; open_ms; setup_s }

(* Verified ops per reference second: the median slice rate. *)
let rate (p : phase) = Sample.median p.rates

let end_to_end m =
  [ ("ops_per_s", rate m.p, "1/s");
    ("cpu_us_per_op", cpu_per_op m.p (Array.fold_left ( +. ) 0. m.p.cpu), "us");
    ("peak_rss_mb", m.rss, "MB");
    ("setup_s", m.setup_s, "s") ]

(* The window as the wall clock saw it, the share of demanded CPU the
   host granted, and the host's speed, next to [ops_per_s], which
   counts granted time in reference seconds. *)
let host m =
  let ops, secs = Loadgen.window m.p.r in
  [ ("host.ops_per_wall_s", Sample.ratio (float_of_int ops) secs, "1/s");
    ("host.granted_share", Loadgen.granted m.p.r, "ratio");
    ("host.speed", m.p.speed, "ratio") ]

(* Traced passes run for a fifth of the timed window. *)
let traced_seconds ctx = ctx.seconds /. 5.

let overhead m (tp : phase) = 1. -. Sample.ratio (rate tp) (rate m.p)
let latencies (tp : phase) = Sample.summary "gen.request_us" ~unit_:"us" (Array.of_list (List.map (fun s -> 1e6 *. s) tp.r.Loadgen.latencies))

(* The self time of every [server.request] span a traced daemon wrote
   into its drain report: duration minus the time its children cover. *)
let request_self_us name =
  let text = Sut.read_file (name ^ ".out") in
  let line = List.find (fun l -> String.length l > 0 && l.[0] = '{') (String.split_on_char '\n' text) in
  let doc = match Json.parse ~max_bytes:max_int line with Ok j -> j | Error e -> failwith e in
  let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> 0. in
  let out = ref [] in
  let rec walk span =
    let children = match Json.member "children" span with Some (Json.Arr cs) -> cs | _ -> [] in
    if Json.member "name" span = Some (Json.Str "server.request") then begin
      let covered = List.fold_left (fun acc ch -> acc +. num (Json.member "dur_ms" ch)) 0. children in
      out := (1e3 *. (num (Json.member "dur_ms" span) -. covered)) :: !out
    end;
    List.iter walk children
  in
  (match Json.member "spans" doc with Some (Json.Arr roots) -> List.iter walk roots | _ -> ());
  (Array.of_list !out, doc)

let counter doc name =
  match Option.bind (Json.member "metrics" doc) (Json.member "counters") with
  | Some c -> ( match Json.member name c with Some (Json.Int i) -> float_of_int i | _ -> 0.)
  | None -> 0.

(* [Engine.Cache] hit shares inside traced daemons, from the counters
   of their drain reports: the warm-up and the traced pass. *)
let daemon_cache docs = Layers.cache_shares (fun name -> List.fold_left (fun acc d -> acc +. counter d name) 0. docs)

(* ----------------------------- routed-hot ---------------------------- *)

let prep_records = 32768
let working_set = 4096
let shards = [ "shard0"; "shard1" ]

let routed_hot ctx =
  (* Prep (untimed): real verdicts, journaled on the shard the router's
     ring (default 64 vnodes) will send each key to. *)
  let ring = Cluster.Ring.make (List.length shards) in
  let stores = Array.of_list (List.map (fun s -> Server.Store.open_ ~fsync_every:max_int (s ^ ".journal")) shards) in
  let seen = Hashtbl.create prep_records in
  let ws = ref [] in
  Array.iter
    (fun (i : Check.Instance.t) ->
      let k = key i in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        let v = Analysis.check ~mu:i.mu i.tmat in
        let shard = Cluster.Ring.shard_of ring (Server.Store.family_hash i.tmat) in
        Server.Store.add stores.(shard) ~mu:i.mu i.tmat (Server.Store.entry_of_verdict v);
        if Hashtbl.length seen <= working_set then ws := (i, P.wire_of_verdict v) :: !ws
      end)
    (stream ~seed:ctx.seed ~from:0 prep_records);
  Array.iter Server.Store.close stores;
  Engine.Cache.clear ();
  let ws = Array.of_list (List.rev !ws) in
  let insts = Array.map fst ws and expected = Array.map snd ws in
  let n = Array.length ws in
  let frames = Array.mapi (fun id i -> Loadgen.encode_analyze ~id i) insts in
  let frame i = frames.(i mod n) in
  let expect id = if id >= 0 && id < n then Some expected.(id) else None in
  let start ~traced =
    let t0 = Sample.now () and h0 = Sut.host_cpu () in
    let spids = List.map (serve ctx ~traced) shards in
    let argv =
      [ ctx.cli; "route"; "--socket"; "router.sock" ]
      @ List.concat_map (fun s -> [ "--shard"; s ^ ".sock" ]) shards
    in
    let rpid = Sut.spawn ~name:"router" (Array.of_list argv) in
    Sut.wait_for_socket ~pid:rpid "router.sock";
    let c = open_gen "router.sock" in
    let warm = Loadgen.drive c ~window ~count:n ~frame ~expect ~seconds:infinity ~slice_s ~trace:false ~on_slice:ignore in
    if warm.Loadgen.failed > 0 then failwith "routed-hot: warm-up replies differ from the reference";
    { c; pids = rpid :: spids; setup_s = granted_since t0 h0 }
  in
  let stop sys =
    Loadgen.close sys.c;
    List.iter Sut.stop sys.pids
  in
  let sys, setup_s = boot ~start ~stop in
  let m = measure ~daemons:shards ~sys ~setup_s ~seconds:ctx.seconds ~count:max_int ~frame ~expect in
  stop sys;
  let guards =
    [ ("routed-hot: zero shard store misses in the timed phase", m.delta [ "store"; "misses" ] = 0.);
      ("routed-hot: zero batched requests in the timed phase", m.delta [ "batched" ] = 0.) ]
  in
  let layers () =
    let completed = float_of_int m.p.r.Loadgen.completed in
    let split =
      [ ("gen.cpu_us_per_op", cpu_per_op m.p m.p.gen_cpu, "us");
        ("cluster.router.cpu_us_per_op", cpu_per_op m.p m.p.cpu.(0), "us");
        ("server.daemon.cpu_us_per_op", cpu_per_op m.p (m.p.cpu.(1) +. m.p.cpu.(2)), "us");
        ("cluster.router.json_reply_share", Sample.ratio (float_of_int m.p.r.Loadgen.json_replies) completed, "ratio");
        ("server.daemon.fastpath_share", Sample.ratio (m.delta [ "fastpath" ]) completed, "ratio");
        ("server.store.open_ms", m.open_ms, "ms") ]
    in
    (* Traced pass: shards write their request spans and counters, the
       generator times every request. *)
    let tsys = start ~traced:true in
    let tp = timed ~pids:tsys.pids ~seconds:(traced_seconds ctx) ~trace:true tsys.c ~count:max_int ~frame ~expect in
    stop tsys;
    let reports = List.map request_self_us shards in
    let spans = List.concat_map (fun (sp, _) -> Array.to_list sp) reports in
    (* Untraced again.  The router hop: the same keys unpipelined
       through the router and straight to the owning shard, alternating.
       Then shard 0 answering its own keys directly, pipelined as in the
       timed phase: the daemon's CPU per op without a router. *)
    let sys = start ~traced:false in
    let shard_conns = Array.of_list (List.map (fun s -> open_gen (s ^ ".sock")) shards) in
    let rtt conn id =
      let t0 = Sample.now () in
      Loadgen.send conn frames.(id);
      (match Loadgen.next_frame conn with
      | Server.Wire.Bin_verdict _ | Server.Wire.Text _ -> ()
      | _ -> failwith "unexpected reply");
      1e6 *. (Sample.now () -. t0)
    in
    let owner id = Cluster.Ring.shard_of ring (Server.Store.family_hash insts.(id).tmat) in
    let hop = Array.init (min n 2000) (fun id -> rtt sys.c id -. rtt shard_conns.(owner id) id) in
    let own = Array.of_list (List.filter (fun id -> owner id = 0) (List.init n Fun.id)) in
    let direct =
      timed ~pids:[ List.nth sys.pids 1 ] ~seconds:(traced_seconds ctx) ~trace:false shard_conns.(0) ~count:max_int
        ~frame:(fun i -> frames.(own.(i mod Array.length own))) ~expect
    in
    Array.iter Loadgen.close shard_conns;
    stop sys;
    ( split
      @ [ ("server.daemon.direct_cpu_us_per_op", cpu_per_op direct direct.cpu.(0), "us");
          ("server.daemon.direct_ops_per_s", rate direct, "1/s") ]
      @ [ ("trace.overhead", overhead m tp, "ratio") ]
      @ latencies tp
      @ Sample.summary "cluster.router.hop_us" ~unit_:"us" hop
      @ Sample.summary "server.daemon.request_us" ~unit_:"us" (Array.of_list spans)
      @ daemon_cache (List.map snd reports),
      Layers.replay ~expected:(fun id -> expected.(id)) insts
      @ [ ("engine.analysis.cpu_us_per_op", fst (Layers.analysis insts), "us") ] )
  in
  let layers, replayed = if ctx.trace then layers () else ([], []) in
  let layers = host m @ layers in
  { attempted = m.p.r.Loadgen.completed; failed = m.p.r.Loadgen.failed; guards; e2e = end_to_end m; layers; replayed }

(* ----------------------------- serve-fresh --------------------------- *)

let warmup_ops = 2048

(* The timed slice: room for 30,000 requests a second, about twice the
   fastest wall-clock rate seen on the machine the benchmark was built
   on, so the window, not the stream, ends the timed phase. *)
let timed_cap ctx = 30_000 * int_of_float (Float.ceil ctx.seconds)

let serve_fresh ctx =
  (* Prep (untimed): the stream's requests and reference verdicts. *)
  let timed_cap = timed_cap ctx in
  let total = warmup_ops + timed_cap in
  Engine.Cache.clear ();
  let frames, expected = requests ~seed:ctx.seed total in
  let expect id = if id >= 0 && id < total then Some expected.(id) else None in
  let start ~traced =
    let t0 = Sample.now () and h0 = Sut.host_cpu () in
    Sut.rm_rf "fresh.journal";
    let pid = serve ctx ~traced "fresh" in
    let c = open_gen "fresh.sock" in
    let warm =
      Loadgen.drive c ~window ~count:warmup_ops ~frame:(fun i -> frames.(i)) ~expect ~seconds:infinity ~slice_s
        ~trace:false ~on_slice:ignore
    in
    if warm.Loadgen.failed > 0 then failwith "serve-fresh: warm-up replies differ from the reference";
    { c; pids = [ pid ]; setup_s = granted_since t0 h0 }
  in
  let stop sys =
    Loadgen.close sys.c;
    List.iter Sut.stop sys.pids
  in
  let warm = stream ~seed:ctx.seed ~from:0 warmup_ops in
  let warm_keys = Hashtbl.create warmup_ops in
  Array.iter (fun i -> Hashtbl.replace warm_keys (key i) ()) warm;
  (* Keys of the first [sent] timed ops that the warm-up never sent. *)
  let new_keys sent =
    let fresh = Hashtbl.create sent in
    for i = warmup_ops to warmup_ops + sent - 1 do
      let k = key (Check.Gen.ith ~seed:ctx.seed ~size i) in
      if not (Hashtbl.mem warm_keys k) then Hashtbl.replace fresh k ()
    done;
    float_of_int (Hashtbl.length fresh)
  in
  let frame i = frames.(warmup_ops + i) in
  let sys, setup_s = boot ~start ~stop in
  let m = measure ~daemons:[ "fresh" ] ~sys ~setup_s ~seconds:ctx.seconds ~count:timed_cap ~frame ~expect in
  stop sys;
  let sent = m.p.r.Loadgen.completed in
  let guards =
    [ ( "serve-fresh: one store miss and one append for each timed key not seen during setup",
        let fresh = new_keys sent in
        m.delta [ "store"; "appended" ] = fresh && m.delta [ "store"; "misses" ] >= fresh );
      ("serve-fresh: the timed phase ran for its whole window", sent < timed_cap) ]
  in
  let layers () =
    let completed = float_of_int sent in
    let timed_insts = stream ~seed:ctx.seed ~from:warmup_ops sent in
    let analysis_us, analysis = Layers.analysis ~warm timed_insts in
    let daemon_us = cpu_per_op m.p m.p.cpu.(0) in
    let counters =
      [ ("gen.cpu_us_per_op", cpu_per_op m.p m.p.gen_cpu, "us");
        ("server.daemon.cpu_us_per_op", daemon_us, "us");
        ("server.daemon.overhead_us_per_op", daemon_us -. analysis_us, "us");
        ("server.daemon.batch_size_mean", Sample.ratio (m.delta [ "batched" ]) (m.delta [ "batches" ]), "count");
        ("server.daemon.coalesced_share", Sample.ratio (m.delta [ "singleflight"; "coalesced" ]) completed, "ratio");
        ("server.daemon.shed_share", Sample.ratio (m.delta [ "shed" ]) completed, "ratio");
        ("server.daemon.fastpath_share", Sample.ratio (m.delta [ "fastpath" ]) completed, "ratio");
        ("server.daemon.family_fastpath_share", Sample.ratio (m.delta [ "family"; "fastpath" ]) completed, "ratio") ]
    in
    let tsys = start ~traced:true in
    let tp = timed ~pids:tsys.pids ~seconds:(traced_seconds ctx) ~trace:true tsys.c ~count:timed_cap ~frame ~expect in
    stop tsys;
    let spans, doc = request_self_us "fresh" in
    let family_builds = counter doc "family.misses" and family_residual = counter doc "family.residual" in
    ( counters
      @ [ ("trace.overhead", overhead m tp, "ratio");
          ("server.daemon.family_residual_per_build", Sample.ratio family_residual family_builds, "ratio") ]
      @ latencies tp
      @ Sample.summary "server.daemon.request_us" ~unit_:"us" spans
      @ daemon_cache [ doc ],
      analysis @ Layers.replay ~expected:(fun id -> expected.(warmup_ops + id)) (Array.sub timed_insts 0 (min sent 4096)) )
  in
  let layers, replayed = if ctx.trace then layers () else ([], []) in
  let layers = host m @ layers in
  { attempted = sent; failed = m.p.r.Loadgen.failed; guards; e2e = end_to_end m; layers; replayed }
