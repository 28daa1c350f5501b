(* The chaos driver (contract in chaos.mli).  Only three steps depend
   on the topology: [boot], the mid-stream [kill], and the SLO passes
   in [run].  Ground truth, the request loop, the ack audit and the
   report are one code path for one daemon and for a fleet. *)

type fleet = { shards : int; hedge : bool; hard_kill : bool; slo : bool }
type topology = Daemon of { jobs : int option } | Fleet of fleet

type config = {
  seed : int;
  requests : int;
  distinct : int;
  size : int;
  classes : string list;
  rate : float;
  transport : Server.Wire.version;
  delay_ms : int;
  fsync_every : int;
  topology : topology;
}

let default_config =
  {
    seed = 42;
    requests = 500;
    distinct = 32;
    size = 4;
    classes = [ "io"; "conn"; "worker" ];
    rate = 0.1;
    transport = Server.Wire.V1;
    delay_ms = 25;
    fsync_every = 4;
    topology = Daemon { jobs = None };
  }

let default_fleet = { shards = 3; hedge = true; hard_kill = false; slo = false }

type slo_report = {
  baseline_p99_ms : float;
  hedged_p99_ms : float;
  unhedged_p99_ms : float;
  bound_ms : float;
  hedged_within_bound : bool;
  unhedged_degraded : bool;
}

type report = {
  seed : int;
  requests : int;
  shards : int;
  classes : string list;
  rate : float;
  transport : string;
  ok : int;
  errors : int;
  retried : int;
  attempts : int;
  disagreements : int;
  acked : int;
  lost_writes : int;
  faults : int;
  delays : int;
  site_counts : (string * int) list;
  worker_deaths : int;
  store_quarantined : int;
  store_healed : int;
  store_io_errors : int;
  killed_shard : int;
  killed_at : int;
  promoted : bool;
  hedges : int;
  hedge_wins : int;
  fingerprint : string;
  fault_log : string list;
  converged : bool;
  slo : slo_report option;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  recovery_p50_ms : float;
  recovery_p95_ms : float;
  recovery_max_ms : float;
  wall_s : float;
}

let path_counter = Atomic.make 0

let fresh_path name suffix =
  Printf.sprintf "%s/chaos-%s-%d-%d%s" (Filename.get_temp_dir_name ()) name (Unix.getpid ())
    (Atomic.fetch_and_add path_counter 1) suffix

(* One booted daemon and the files it owns. *)
type node = { daemon : Server.Daemon.t; thread : Thread.t; sock : string; journal : string }

let boot_node (cfg : config) ~jobs name =
  let sock = fresh_path name ".sock" and journal = fresh_path name ".journal" in
  let daemon =
    Server.Daemon.create
      {
        (Server.Daemon.default_config (Server.Daemon.Unix_sock sock)) with
        jobs;
        store_path = Some journal;
        (* Small (4 by default), so store.fsync faults matter at
           chaos request counts; the hard-kill leg runs 1, syncing
           every ack before its reply. *)
        fsync_every = cfg.fsync_every;
      }
  in
  { daemon; thread = Thread.create Server.Daemon.run daemon; sock; journal }

let stop_node n =
  Server.Daemon.initiate_drain n.daemon;
  Thread.join n.thread

(* A fleet and the one kill a run may see: shard [target] dies at
   request [killed_at] ([-1] until it does). *)
type fleet_run = {
  fleet : fleet;
  primaries : node array;
  followers : node array;
  router : Router.t;
  router_thread : Thread.t;
  router_sock : string;
  target : int;
  mutable killed_at : int;
  mutable promoted : bool;
}

type booted = One of node | Many of fleet_run

let boot (cfg : config) ~hedge =
  match cfg.topology with
  | Daemon { jobs } -> One (boot_node cfg ~jobs "daemon")
  | Fleet fleet ->
    let nodes role =
      Array.init fleet.shards (fun i ->
          boot_node cfg ~jobs:(Some 1) (Printf.sprintf "%s%d" role i))
    in
    let primaries = nodes "shard" in
    let followers = nodes "follower" in
    let router_sock = fresh_path "router" ".sock" in
    let spec p f =
      { Router.primary = `Unix p.sock; follower = Some (`Unix f.sock);
        journal = Some p.journal }
    in
    let router =
      Router.create
        {
          (Router.default_config (Server.Daemon.Unix_sock router_sock)
             (Array.to_list (Array.map2 spec primaries followers)))
          with
          pool_size = 1;
          shard_transport = cfg.transport;
          (* Quiet monitor: the driver performs the kill and promotion
             itself, at a deterministic point in the request stream. *)
          health_interval_ms = 60_000;
          (* A fixed hedge delay keeps the pass self-contained: no
             warm-up before an adaptive p99 means anything.  A gray
             stall parks every request queued behind it and each one
             hedges, so the budget is sized to the run: the audit
             measures hedging, not the budget's refill race. *)
          hedge = (if hedge then Router.Fixed_ms 5 else Router.No_hedge);
          hedge_budget = max 64 cfg.requests;
        }
    in
    Many
      {
        fleet;
        primaries;
        followers;
        router;
        router_thread = Thread.create Router.run router;
        router_sock;
        target = cfg.seed mod fleet.shards;
        killed_at = -1;
        promoted = false;
      }

let killed f shard = f.killed_at >= 0 && shard = f.target

(* One kill per run, after a warm-up third of the load: the doomed
   shard must hold acked writes for the audit to mean anything.  The
   kill and the promotion run here, on the driver thread, between two
   requests. *)
let kill (cfg : config) booted i =
  match booted with
  | One _ -> ()
  | Many f ->
    if f.killed_at < 0 && i >= cfg.requests / 3 && Fault.should_fail "shard.kill" then begin
      let n = f.primaries.(f.target) in
      f.killed_at <- i;
      (* [hard_kill] is the SIGKILL-grade path: queued requests and
         buffered reply bytes are discarded, and acked writes survive
         only per the fsync_every contract. *)
      if f.fleet.hard_kill then Server.Daemon.abort n.daemon
      else Server.Daemon.initiate_drain n.daemon;
      Thread.join n.thread;
      f.promoted <- Router.promote_shard f.router f.target
    end

(* Drain every live process; returns the router's hedge counters. *)
let drain = function
  | One n ->
    stop_node n;
    (0, 0)
  | Many f ->
    let stats = Router.stats_fields f.router in
    let stat name = match List.assoc_opt name stats with Some (Json.Int n) -> n | _ -> 0 in
    Router.initiate_drain f.router;
    Thread.join f.router_thread;
    Array.iteri (fun i n -> if not (killed f i) then stop_node n) f.primaries;
    Array.iter stop_node f.followers;
    (stat "hedges", stat "hedge_wins")

(* The journals that may hold an acked write, placed through the same
   ring the router used: the follower's alone for the killed shard;
   for a live shard the primary's or the follower's, since a hedge
   that won on the follower acked the write there. *)
let journals booted (inst : Check.Instance.t) =
  match booted with
  | One n -> [ n.journal ]
  | Many f ->
    let shard = Ring.shard_of (Router.ring f.router) (Server.Store.family_hash inst.tmat) in
    if killed f shard then [ f.followers.(shard).journal ]
    else [ f.primaries.(shard).journal; f.followers.(shard).journal ]

let nodes = function
  | One n -> [ n ]
  | Many f -> Array.to_list f.primaries @ Array.to_list f.followers

let pass (cfg : config) ~instances ~expected ~arm ~hedge =
  let booted = boot cfg ~hedge in
  let plan =
    Fault.Plan.make ~rate:cfg.rate ~seed:cfg.seed ~delay_ms:cfg.delay_ms
      ~classes:cfg.classes ()
  in
  if arm then Fault.Plan.arm plan;
  let sock = match booted with One n -> n.sock | Many f -> f.router_sock in
  (* No retry budget: its bucket refills by wall clock, which would
     make the retried consults, and so the fault log, depend on how
     fast the run went.  [max_attempts] still bounds each request. *)
  let session =
    Server.Client.session
      ~retry:{ Server.Client.default_retry with retry_seed = cfg.seed; retry_budget = 0 }
      ~transport:cfg.transport (`Unix sock)
  in
  (* (attempts, latency ms) of every answered request. *)
  let answered = ref [] in
  let ok = ref 0 and errors = ref 0 and disagreements = ref 0 in
  let acked = Array.make cfg.distinct false in
  let t0 = Unix.gettimeofday () in
  for i = 0 to cfg.requests - 1 do
    kill cfg booted i;
    let idx = i mod cfg.distinct in
    let inst = instances.(idx) in
    let r0 = Unix.gettimeofday () in
    match
      Server.Client.call session
        (Server.Protocol.analyze ~id:(Json.Int i) ~mu:inst.Check.Instance.mu inst.tmat)
    with
    | Error _ -> incr errors
    | Ok (reply, k) ->
      answered := (k, 1000. *. (Unix.gettimeofday () -. r0)) :: !answered;
      if not (Server.Protocol.reply_ok reply) then incr errors
      else begin
        incr ok;
        (match Json.member "verdict" reply with
        | Some v when Json.to_string v = expected.(idx) -> ()
        | _ -> incr disagreements);
        (* The family fastpath appends the concrete entry before it
           replies [family], so all three statuses acknowledge a
           write. *)
        match Json.member "store" reply with
        | Some (Json.Str ("hit" | "miss" | "family")) -> acked.(idx) <- true
        | _ -> ()
      end
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  Server.Client.close_session session;
  (* Shutdown is not under test: disarm so the drains run clean and
     every journal is flushed before the audit reopens it. *)
  if arm then Fault.Plan.disarm ();
  let hedges, hedge_wins = drain booted in
  let nodes = nodes booted in
  let stores = List.map (fun n -> (n.journal, Server.Store.open_ n.journal)) nodes in
  let holds idx journal =
    let inst = instances.(idx) in
    let store = List.assoc journal stores in
    match Server.Store.find store ~mu:inst.Check.Instance.mu inst.tmat with
    | Some e ->
      Json.to_string (Server.Protocol.json_of_wire (Server.Protocol.wire_of_entry e))
      = expected.(idx)
    | None -> false
  in
  let lost_writes = ref 0 in
  Array.iteri
    (fun idx was_acked ->
      if was_acked && not (List.exists (holds idx) (journals booted instances.(idx))) then
        incr lost_writes)
    acked;
  List.iter (fun (_, s) -> Server.Store.close s) stores;
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
  let store_sum f =
    sum (fun n ->
        match Server.Daemon.store n.daemon with
        | Some s -> f (Server.Store.stats s)
        | None -> 0)
  in
  let worker_deaths = sum (fun n -> Server.Daemon.worker_deaths n.daemon) in
  let store_quarantined = store_sum (fun s -> s.quarantined)
  and store_healed = store_sum (fun s -> s.healed)
  and store_io_errors = store_sum (fun s -> s.io_errors) in
  let remove path = try Sys.remove path with Sys_error _ -> () in
  (match booted with Many f -> remove f.router_sock | One _ -> ());
  List.iter (fun n -> List.iter remove [ n.sock; n.journal; n.journal ^ ".quarantine" ]) nodes;
  let killed_shard, killed_at, promoted =
    match booted with
    | Many f when f.killed_at >= 0 -> (f.target, f.killed_at, f.promoted)
    | _ -> (-1, -1, false)
  in
  let sorted_ms min_tries =
    let keep (k, ms) = if k >= min_tries then Some ms else None in
    let a = Array.of_list (List.filter_map keep !answered) in
    Array.sort compare a;
    a
  in
  let lat = sorted_ms 1 and recovery = sorted_ms 2 in
  let events = Fault.Plan.events plan in
  {
    seed = cfg.seed;
    requests = cfg.requests;
    shards = (match cfg.topology with Fleet f -> f.shards | Daemon _ -> 0);
    classes = cfg.classes;
    rate = cfg.rate;
    transport = Server.Wire.version_name cfg.transport;
    ok = !ok;
    errors = !errors;
    retried = List.length (List.filter (fun (k, _) -> k > 1) !answered);
    attempts = List.fold_left (fun n (k, _) -> n + k) 0 !answered;
    disagreements = !disagreements;
    acked = Array.fold_left (fun n b -> if b then n + 1 else n) 0 acked;
    lost_writes = !lost_writes;
    faults = Fault.Plan.faults_injected plan;
    delays = Fault.Plan.delays_injected plan;
    site_counts =
      List.map
        (fun (site, _) ->
          (site, List.length (List.filter (fun e -> e.Fault.Plan.site = site) events)))
        Fault.Plan.site_catalogue;
    worker_deaths;
    store_quarantined;
    store_healed;
    store_io_errors;
    killed_shard;
    killed_at;
    promoted;
    hedges;
    hedge_wins;
    fingerprint = Fault.Plan.fingerprint plan;
    fault_log = Fault.Plan.log_lines plan;
    converged =
      !disagreements = 0 && !lost_writes = 0 && !ok > 0 && (killed_at < 0 || promoted);
    slo = None;
    p50_ms = Server.Client.percentile lat 0.50;
    p95_ms = Server.Client.percentile lat 0.95;
    p99_ms = Server.Client.percentile lat 0.99;
    recovery_p50_ms = Server.Client.percentile recovery 0.50;
    recovery_p95_ms = Server.Client.percentile recovery 0.95;
    recovery_max_ms = Server.Client.percentile recovery 1.0;
    wall_s;
  }

let run (cfg : config) =
  List.iter
    (fun (what, n) -> if n < 1 then invalid_arg ("Chaos.run: " ^ what ^ " must be >= 1"))
    [
      ("requests", cfg.requests);
      ("distinct", cfg.distinct);
      ("fsync_every", cfg.fsync_every);
      ("shards", match cfg.topology with Fleet f -> f.shards | Daemon _ -> 1);
    ];
  let instances =
    Array.init cfg.distinct (fun i -> Check.Gen.ith ~seed:cfg.seed ~size:cfg.size i)
  in
  let expected = Array.map Server.Client.expected_verdict instances in
  let pass = pass cfg ~instances ~expected in
  match cfg.topology with
  | Daemon _ -> pass ~arm:true ~hedge:false
  | Fleet ({ slo = false; _ } as f) -> pass ~arm:true ~hedge:f.hedge
  | Fleet f ->
    let baseline = pass ~arm:false ~hedge:f.hedge in
    let hedged = pass ~arm:true ~hedge:true in
    let unhedged = pass ~arm:true ~hedge:false in
    let bound_ms = Float.max (3. *. baseline.p99_ms) 25. in
    let s =
      {
        baseline_p99_ms = baseline.p99_ms;
        hedged_p99_ms = hedged.p99_ms;
        unhedged_p99_ms = unhedged.p99_ms;
        bound_ms;
        hedged_within_bound = hedged.p99_ms <= bound_ms;
        unhedged_degraded = unhedged.p99_ms > bound_ms;
      }
    in
    {
      hedged with
      slo = Some s;
      converged = hedged.converged && s.hedged_within_bound && s.unhedged_degraded;
      wall_s = baseline.wall_s +. hedged.wall_s +. unhedged.wall_s;
    }

let json_of_report r =
  let int n = Json.Int n and float x = Json.Float x in
  Json.Obj
    ([
       ("seed", int r.seed);
       ("requests", int r.requests);
       ("shards", int r.shards);
       ("classes", Json.Arr (List.map (fun c -> Json.Str c) r.classes));
       ("rate", float r.rate);
       ("transport", Json.Str r.transport);
       ("ok", int r.ok);
       ("errors", int r.errors);
       ("retried", int r.retried);
       ("attempts", int r.attempts);
       ("disagreements", int r.disagreements);
       ("acked", int r.acked);
       ("lost_writes", int r.lost_writes);
       ("faults", int r.faults);
       ("delays", int r.delays);
       ("site_counts", Json.Obj (List.map (fun (s, n) -> (s, int n)) r.site_counts));
       ("worker_deaths", int r.worker_deaths);
       ("store_quarantined", int r.store_quarantined);
       ("store_healed", int r.store_healed);
       ("store_io_errors", int r.store_io_errors);
       ("killed_shard", int r.killed_shard);
       ("killed_at", int r.killed_at);
       ("promoted", Json.Bool r.promoted);
       ("promotions", int (if r.promoted then 1 else 0));
       ("hedges", int r.hedges);
       ("hedge_wins", int r.hedge_wins);
       ("fingerprint", Json.Str r.fingerprint);
       ("converged", Json.Bool r.converged);
     ]
    @ Option.fold r.slo ~none:[] ~some:(fun s ->
          [
            ( "slo",
              Json.Obj
                [
                  ("baseline_p99_ms", float s.baseline_p99_ms);
                  ("hedged_p99_ms", float s.hedged_p99_ms);
                  ("unhedged_p99_ms", float s.unhedged_p99_ms);
                  ("bound_ms", float s.bound_ms);
                  ("hedged_within_bound", Json.Bool s.hedged_within_bound);
                  ("unhedged_degraded", Json.Bool s.unhedged_degraded);
                ] );
          ])
    @ [
        ("p50_ms", float r.p50_ms);
        ("p95_ms", float r.p95_ms);
        ("p99_ms", float r.p99_ms);
        ("recovery_p50_ms", float r.recovery_p50_ms);
        ("recovery_p95_ms", float r.recovery_p95_ms);
        ("recovery_max_ms", float r.recovery_max_ms);
        ("wall_s", float r.wall_s);
      ])
