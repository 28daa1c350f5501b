(* Cluster chaos: boot a whole fleet in-process — N shard daemons, N
   followers, one router — kill a shard mid-load, promote its
   follower, and audit that the fleet never disagreed with ground
   truth and never lost an acked write (docs/CLUSTER.md,
   docs/RESILIENCE.md).

   Determinism contract, stricter than single-daemon {!Server.Chaos}:
   only the [cluster] fault class is armed by default.  The fleet's
   background traffic (health probes, journal shipping, the daemons'
   own accept/read paths) would consult the io/conn sites in
   timing-dependent order; with those classes disabled a consult never
   bumps a site counter ({!Fault}), so the armed sites —
   [shard.kill], consulted once per request by the single driver
   thread, and [route.forward], consulted on the router's loop once
   per request the driver sends through it — see a seed-reproducible
   sequence, and two same-seed runs produce byte-identical fault
   logs.  The [latency] class is also safe to arm: its sites are
   ambient — a fired consult stalls the caller but is never logged
   per event, so the log carries only the deterministic arm-time
   record of each enabled site and its delay.  The kill -> catch-up ->
   promote transition itself runs synchronously on the driver thread,
   between two requests.

   SLO mode ([slo = true]) runs three passes over the same instance
   stream: fault-free baseline, gray (latency faults armed) with
   hedging, gray without hedging.  The audit then demands
   [hedged_p99 <= max (3 * baseline_p99) 25ms] while the unhedged
   pass demonstrably degrades past the same bound — the measurable
   claim behind the hedging machinery.  The reported counters,
   fingerprint and fault log come from the gray+hedged pass (the
   other armed pass sees the same seed, hence the same log). *)

type config = {
  seed : int;
  requests : int;
  distinct : int;
  size : int;
  shards : int;
  classes : string list;
  rate : float;
  transport : Server.Wire.version;
  hedge : bool;
  hard_kill : bool;
  fsync_every : int;
  slo : bool;
  delay_ms : int;
}

let default_config =
  {
    seed = 42;
    requests = 500;
    distinct = 32;
    size = 4;
    shards = 3;
    classes = [ "cluster" ];
    rate = 0.1;
    transport = Server.Wire.V1;
    hedge = true;
    hard_kill = false;
    fsync_every = 4;
    slo = false;
    delay_ms = 50;
  }

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
  killed_shard : int;    (* -1 when the plan never fired shard.kill *)
  killed_at : int;       (* request index of the kill, -1 when none *)
  promoted : bool;
  promotions : int;
  hedges : int;
  hedge_wins : int;
  fingerprint : string;
  fault_log : string list;
  converged : bool;
  slo : slo_report option;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  wall_s : float;
}

let path_counter = Atomic.make 0

let fresh_path prefix suffix =
  Printf.sprintf "%s/%s-%d-%d%s"
    (Filename.get_temp_dir_name ())
    prefix (Unix.getpid ())
    (Atomic.fetch_and_add path_counter 1)
    suffix

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let reply_field reply name =
  match Json.member name reply with Some (Json.Str s) -> Some s | _ -> None

let shard_daemon ~fsync_every ~sock ~journal =
  Server.Daemon.create
    {
      (Server.Daemon.default_config (Server.Daemon.Unix_sock sock)) with
      jobs = Some 1;
      store_path = Some journal;
      (* Small fsync interval, as in single-daemon chaos: acked
         writes reach the journal file promptly.  The hard-kill
         durability leg runs with [fsync_every = 1]: every ack
         synced before the reply, so even an abort loses nothing. *)
      fsync_every;
    }

(* One fleet boot + load + audit.  [arm] decides whether the seeded
   plan is armed for this pass; [hedge] whether the router hedges.
   The caller owns pass sequencing (SLO mode runs three). *)
type pass = {
  x_ok : int;
  x_errors : int;
  x_retried : int;
  x_attempts : int;
  x_disagreements : int;
  x_acked : int;
  x_lost : int;
  x_killed_shard : int;
  x_killed_at : int;
  x_promoted : bool;
  x_hedges : int;
  x_hedge_wins : int;
  x_plan : Fault.Plan.t option;
  x_p50 : float;
  x_p95 : float;
  x_p99 : float;
  x_wall : float;
}

let stat_int fields name =
  match List.assoc_opt name fields with Some (Json.Int n) -> n | _ -> 0

let run_pass (cfg : config) ~arm ~hedge ~instances ~expected =
  let router_sock = fresh_path "cluster" ".sock" in
  let shard_socks = Array.init cfg.shards (fun i -> fresh_path (Printf.sprintf "shard%d" i) ".sock") in
  let shard_journals =
    Array.init cfg.shards (fun i -> fresh_path (Printf.sprintf "shard%d" i) ".journal")
  in
  let follower_socks =
    Array.init cfg.shards (fun i -> fresh_path (Printf.sprintf "follower%d" i) ".sock")
  in
  let follower_journals =
    Array.init cfg.shards (fun i -> fresh_path (Printf.sprintf "follower%d" i) ".journal")
  in
  let shard_daemons =
    Array.init cfg.shards (fun i ->
        shard_daemon ~fsync_every:cfg.fsync_every ~sock:shard_socks.(i)
          ~journal:shard_journals.(i))
  in
  let follower_daemons =
    Array.init cfg.shards (fun i ->
        shard_daemon ~fsync_every:cfg.fsync_every ~sock:follower_socks.(i)
          ~journal:follower_journals.(i))
  in
  let shard_threads = Array.map (fun d -> Thread.create Server.Daemon.run d) shard_daemons in
  let follower_threads =
    Array.map (fun d -> Thread.create Server.Daemon.run d) follower_daemons
  in
  let router =
    Router.create
      {
        (Router.default_config (Server.Daemon.Unix_sock router_sock)
           (Array.to_list
              (Array.init cfg.shards (fun i ->
                   {
                     Router.primary = `Unix shard_socks.(i);
                     follower = Some (`Unix follower_socks.(i));
                     journal = Some shard_journals.(i);
                   }))))
        with
        pool_size = 1;
        shard_transport = cfg.transport;
        (* Quiet monitor: the driver performs the kill and promotion
           itself, at a deterministic point in the request stream. *)
        health_interval_ms = 60_000;
        (* A fixed hedge delay keeps the pass self-contained: no
           warm-up needed before the adaptive p99 is meaningful.  The
           budget is sized to the run: a gray stall parks every
           request queued behind it and each one hedges, so a pass can
           legitimately need several hedges per stall — the audit
           measures hedging, not the budget's refill race (the budget
           mechanics have their own tests). *)
        hedge = (if hedge then Router.Fixed_ms 5 else Router.No_hedge);
        hedge_budget = max 64 cfg.requests;
      }
  in
  let router_thread = Thread.create Router.run router in
  let plan =
    if arm then begin
      let p =
        Fault.Plan.make ~rate:cfg.rate ~seed:cfg.seed ~delay_ms:cfg.delay_ms
          ~classes:cfg.classes ()
      in
      Fault.Plan.arm p;
      Some p
    end
    else None
  in
  (* No retry budget: the default bucket refills by wall clock, which
     would make the retried consults, and so the fault log, depend on
     how fast the run went.  [max_attempts] still bounds each request. *)
  let session =
    Server.Client.session
      ~retry:{ Server.Client.default_retry with retry_seed = cfg.seed; retry_budget = 0 }
      ~transport:cfg.transport (`Unix router_sock)
  in
  let kill_target = cfg.seed mod cfg.shards in
  let killed_at = ref (-1) in
  let promoted = ref false in
  let ok = ref 0
  and errors = ref 0
  and retried = ref 0
  and attempts = ref 0
  and disagreements = ref 0 in
  let latencies = Array.make cfg.requests nan in
  let acked = Array.make cfg.distinct false in
  let t0 = Unix.gettimeofday () in
  for i = 0 to cfg.requests - 1 do
    (* One kill per run, armed only after a warm-up third of the load:
       there must be acked writes on the doomed shard for the audit to
       mean anything. *)
    if !killed_at < 0 && i >= cfg.requests / 3 && Fault.should_fail "shard.kill" then begin
      killed_at := i;
      (* [hard_kill] is the SIGKILL-grade path: no drain, no flush —
         queued requests and buffered reply bytes are discarded and
         acked writes survive only per the fsync_every contract. *)
      if cfg.hard_kill then Server.Daemon.abort shard_daemons.(kill_target)
      else Server.Daemon.initiate_drain shard_daemons.(kill_target);
      Thread.join shard_threads.(kill_target);
      promoted := Router.promote_shard router kill_target
    end;
    let idx = i mod cfg.distinct in
    let inst = instances.(idx) in
    let req =
      Server.Protocol.analyze ~id:(Json.Int i) ~mu:inst.Check.Instance.mu
        inst.Check.Instance.tmat
    in
    let r0 = Unix.gettimeofday () in
    match Server.Client.call session req with
    | Error _ -> incr errors
    | Ok (reply, tries) ->
      latencies.(i) <- 1000. *. (Unix.gettimeofday () -. r0);
      attempts := !attempts + tries;
      if tries > 1 then incr retried;
      if Server.Protocol.reply_ok reply then begin
        incr ok;
        (match Json.member "verdict" reply with
        | Some v when Json.to_string v = expected.(idx) -> ()
        | _ -> incr disagreements);
        match reply_field reply "store" with
        | Some ("hit" | "miss" | "family") -> acked.(idx) <- true
        | _ -> ()
      end
      else incr errors
  done;
  let wall_s = Unix.gettimeofday () -. t0 in
  Server.Client.close_session session;
  (* Shutdown is not under test; disarm so the drains run clean and
     every journal is fully flushed before the audit reopens it. *)
  if arm then Fault.Plan.disarm ();
  let killed = !killed_at >= 0 in
  let router_stats = Router.stats_fields router in
  Router.initiate_drain router;
  Thread.join router_thread;
  Array.iteri
    (fun i d ->
      if not (killed && i = kill_target) then begin
        Server.Daemon.initiate_drain d;
        Thread.join shard_threads.(i)
      end)
    shard_daemons;
  Array.iteri
    (fun i d ->
      Server.Daemon.initiate_drain d;
      Thread.join follower_threads.(i))
    follower_daemons;
  (* The audit re-derives placement through the same ring and checks
     every acked write in the journals that may now hold it: the
     follower's (only) for the killed shard; for a live shard the
     primary's or the follower's — a hedge that won on the follower
     acked the write into the follower's journal, which is exactly as
     durable under the replication contract. *)
  let ring = Router.ring router in
  let stores = Hashtbl.create cfg.shards in
  let open_store path =
    match Hashtbl.find_opt stores path with
    | Some s -> s
    | None ->
      let s = Server.Store.open_ path in
      Hashtbl.add stores path s;
      s
  in
  let present path idx =
    let inst = instances.(idx) in
    match
      Server.Store.find (open_store path) ~mu:inst.Check.Instance.mu
        inst.Check.Instance.tmat
    with
    | Some e ->
      Json.to_string (Server.Protocol.json_of_wire (Server.Protocol.wire_of_entry e))
      = expected.(idx)
    | None -> false
  in
  let lost_writes = ref 0 in
  Array.iteri
    (fun idx was_acked ->
      if was_acked then begin
        let inst = instances.(idx) in
        let shard = Ring.shard_of ring (Server.Store.family_hash inst.Check.Instance.tmat) in
        let journals =
          if killed && shard = kill_target then [ follower_journals.(shard) ]
          else [ shard_journals.(shard); follower_journals.(shard) ]
        in
        if not (List.exists (fun p -> present p idx) journals) then incr lost_writes
      end)
    acked;
  Hashtbl.iter (fun _ s -> Server.Store.close s) stores;
  let cleanup p = try Sys.remove p with Sys_error _ -> () in
  cleanup router_sock;
  Array.iter cleanup shard_socks;
  Array.iter cleanup follower_socks;
  Array.iter
    (fun j ->
      cleanup j;
      cleanup (j ^ ".quarantine"))
    (Array.append shard_journals follower_journals);
  let lat =
    let xs =
      Array.of_list
        (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list latencies))
    in
    Array.sort compare xs;
    xs
  in
  {
    x_ok = !ok;
    x_errors = !errors;
    x_retried = !retried;
    x_attempts = !attempts;
    x_disagreements = !disagreements;
    x_acked = Array.fold_left (fun n b -> if b then n + 1 else n) 0 acked;
    x_lost = !lost_writes;
    x_killed_shard = (if killed then kill_target else -1);
    x_killed_at = !killed_at;
    x_promoted = !promoted;
    x_hedges = stat_int router_stats "hedges";
    x_hedge_wins = stat_int router_stats "hedge_wins";
    x_plan = plan;
    x_p50 = percentile lat 0.50;
    x_p95 = percentile lat 0.95;
    x_p99 = percentile lat 0.99;
    x_wall = wall_s;
  }

let run (cfg : config) =
  if cfg.requests < 1 then invalid_arg "Chaos_cluster.run: requests must be >= 1";
  if cfg.distinct < 1 then invalid_arg "Chaos_cluster.run: distinct must be >= 1";
  if cfg.shards < 1 then invalid_arg "Chaos_cluster.run: shards must be >= 1";
  if cfg.fsync_every < 1 then invalid_arg "Chaos_cluster.run: fsync_every must be >= 1";
  let instances =
    Array.init cfg.distinct (fun i -> Check.Gen.ith ~seed:cfg.seed ~size:cfg.size i)
  in
  (* Ground truth before any plan is armed. *)
  let expected =
    Array.map
      (fun (inst : Check.Instance.t) ->
        Json.to_string
          (Server.Protocol.json_of_wire
             (Server.Protocol.wire_of_verdict
                (Analysis.check ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat))))
      instances
  in
  let main, slo, extra_wall =
    if not cfg.slo then (run_pass cfg ~arm:true ~hedge:cfg.hedge ~instances ~expected, None, 0.)
    else begin
      let baseline = run_pass cfg ~arm:false ~hedge:cfg.hedge ~instances ~expected in
      let hedged = run_pass cfg ~arm:true ~hedge:true ~instances ~expected in
      let unhedged = run_pass cfg ~arm:true ~hedge:false ~instances ~expected in
      let bound_ms = Float.max (3. *. baseline.x_p99) 25. in
      ( hedged,
        Some
          {
            baseline_p99_ms = baseline.x_p99;
            hedged_p99_ms = hedged.x_p99;
            unhedged_p99_ms = unhedged.x_p99;
            bound_ms;
            hedged_within_bound = hedged.x_p99 <= bound_ms;
            unhedged_degraded = unhedged.x_p99 > bound_ms;
          },
        baseline.x_wall +. unhedged.x_wall )
    end
  in
  let faults, delays, fingerprint, fault_log, site_counts =
    match main.x_plan with
    | Some plan ->
      let events = Fault.Plan.events plan in
      ( Fault.Plan.faults_injected plan,
        Fault.Plan.delays_injected plan,
        Fault.Plan.fingerprint plan,
        Fault.Plan.log_lines plan,
        List.map
          (fun (site, _) ->
            (site, List.length (List.filter (fun e -> e.Fault.Plan.site = site) events)))
          Fault.Plan.site_catalogue )
    | None -> (0, 0, "", [], [])
  in
  let killed = main.x_killed_at >= 0 in
  let slo_ok =
    match slo with
    | None -> true
    | Some s -> s.hedged_within_bound && s.unhedged_degraded
  in
  {
    seed = cfg.seed;
    requests = cfg.requests;
    shards = cfg.shards;
    classes = cfg.classes;
    rate = cfg.rate;
    transport = Server.Wire.version_name cfg.transport;
    ok = main.x_ok;
    errors = main.x_errors;
    retried = main.x_retried;
    attempts = main.x_attempts;
    disagreements = main.x_disagreements;
    acked = main.x_acked;
    lost_writes = main.x_lost;
    faults;
    delays;
    site_counts;
    killed_shard = main.x_killed_shard;
    killed_at = main.x_killed_at;
    promoted = main.x_promoted;
    promotions = (if main.x_promoted then 1 else 0);
    hedges = main.x_hedges;
    hedge_wins = main.x_hedge_wins;
    fingerprint;
    fault_log;
    converged =
      main.x_disagreements = 0 && main.x_lost = 0 && main.x_ok > 0
      && ((not killed) || main.x_promoted)
      && slo_ok;
    slo;
    p50_ms = main.x_p50;
    p95_ms = main.x_p95;
    p99_ms = main.x_p99;
    wall_s = main.x_wall +. extra_wall;
  }

let json_of_slo s =
  Json.Obj
    [
      ("baseline_p99_ms", Json.Float s.baseline_p99_ms);
      ("hedged_p99_ms", Json.Float s.hedged_p99_ms);
      ("unhedged_p99_ms", Json.Float s.unhedged_p99_ms);
      ("bound_ms", Json.Float s.bound_ms);
      ("hedged_within_bound", Json.Bool s.hedged_within_bound);
      ("unhedged_degraded", Json.Bool s.unhedged_degraded);
    ]

let json_of_report r =
  Json.Obj
    ([
       ("seed", Json.Int r.seed);
       ("requests", Json.Int r.requests);
       ("shards", Json.Int r.shards);
       ("classes", Json.Arr (List.map (fun c -> Json.Str c) r.classes));
       ("rate", Json.Float r.rate);
       ("transport", Json.Str r.transport);
       ("ok", Json.Int r.ok);
       ("errors", Json.Int r.errors);
       ("retried", Json.Int r.retried);
       ("attempts", Json.Int r.attempts);
       ("disagreements", Json.Int r.disagreements);
       ("acked", Json.Int r.acked);
       ("lost_writes", Json.Int r.lost_writes);
       ("faults", Json.Int r.faults);
       ("delays", Json.Int r.delays);
       ( "site_counts",
         Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) r.site_counts) );
       ("killed_shard", Json.Int r.killed_shard);
       ("killed_at", Json.Int r.killed_at);
       ("promoted", Json.Bool r.promoted);
       ("promotions", Json.Int r.promotions);
       ("hedges", Json.Int r.hedges);
       ("hedge_wins", Json.Int r.hedge_wins);
       ("fingerprint", Json.Str r.fingerprint);
       ("converged", Json.Bool r.converged);
     ]
    @ (match r.slo with Some s -> [ ("slo", json_of_slo s) ] | None -> [])
    @ [
        ("p50_ms", Json.Float r.p50_ms);
        ("p95_ms", Json.Float r.p95_ms);
        ("p99_ms", Json.Float r.p99_ms);
        ("wall_s", Json.Float r.wall_s);
      ])
