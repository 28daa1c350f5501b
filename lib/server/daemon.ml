type listen = Conn.listen = Unix_sock of string | Tcp of int

type config = {
  listen : listen;
  jobs : int option;
  store_path : string option;
  snapshot_path : string option;
  fsync_every : int;
  max_transport : Wire.version;
}

let default_config listen =
  {
    listen;
    jobs = None;
    store_path = None;
    snapshot_path = None;
    fsync_every = 32;
    max_transport = Wire.V2;
  }

(* Waiters carry their own (mu, T): singleflight groups key on the
   family (T alone), so members may ask about different instances of
   the leader's family. *)
type waiter = {
  w_conn : Conn.t;
  w_id : Json.t;
  w_bin : bool;
  w_mu : int array;
  w_tmat : Intmat.t;
}

type job = {
  rid : int;
  env : Protocol.envelope;
  jconn : Conn.t;
  enqueued_at : float;
  sf : string option;  (* singleflight key of an analyze leader *)
}

type t = {
  cfg : config;
  pool : Engine.Pool.t;
  store_ : Store.t option;
  queue : job Admission.t;
  limiter : Limiter.t;
  mutable batcher : job Batcher.t option;
  draining : bool Atomic.t;
  aborting : bool Atomic.t;
  reactor : Reactor.t;
  sflight : waiter Singleflight.t;
  next_id : int Atomic.t;
  (* Per-server counts (the [Obs.Metrics] counters are process-wide,
     and the tests run several servers in one process). *)
  n_accepted : int Atomic.t;
  n_shed : int Atomic.t;
  n_served : int Atomic.t;
  n_fastpath : int Atomic.t;
  n_family_fastpath : int Atomic.t;
  n_binary : int Atomic.t;
  n_deadline_exceeded : int Atomic.t;
}

let m_accepted = Obs.Metrics.counter "server.accepted"
let m_shed = Obs.Metrics.counter "server.shed"
let m_batched = Obs.Metrics.counter "server.batched"
let m_conns = Obs.Metrics.counter "server.connections"
let m_fastpath = Obs.Metrics.counter "server.fastpath"
let m_family_fastpath = Obs.Metrics.counter "server.family_fastpath"
let m_coalesced = Obs.Metrics.counter "server.singleflight.coalesced"
let m_deadline_exceeded = Obs.Metrics.counter "server.deadline_exceeded"
let g_queue_depth = Obs.Metrics.gauge "server.queue_depth"
let h_request_ms = Obs.Metrics.histogram "server.request_ms"
let h_queue_wait_ms = Obs.Metrics.histogram "server.queue_wait_ms"

let wake t = Reactor.wake t.reactor

(* Already-running and already-queued requests run to their exact
   answers; only new work is refused. *)
let initiate_drain t =
  if not (Atomic.exchange t.draining true) then begin
    Admission.close t.queue;
    wake t
  end

(* ------------------------------ replies ----------------------------- *)

(* Append one encoded message to the connection's output stream.  With
   [defer] the bytes are only queued — the reactor flushes once per
   read burst, so a pipelined burst of replies costs one [write]
   instead of one per reply.  Workers flush eagerly and nudge the loop
   if the socket would block. *)
let send t conn ?(defer = false) make =
  if Conn.send ~flush:(not defer) conn make && not defer then Reactor.nudge t.reactor

(* Every reply write consults the [conn.write] fault site first, as
   before the event-loop rewrite: a fired fault swallows the reply
   and shuts the connection down, so the peer observes EOF instead of
   silence and can retry promptly. *)
let send_reply t conn ?defer make =
  if Fault.should_fail "conn.write" then Conn.shutdown conn else send t conn ?defer make

let send_doc t conn ?defer json = send_reply t conn ?defer (Conn.doc json)

(* An analyze result fans out to each singleflight waiter in the
   waiter's own dialect ({!Conn.analyze_reply}). *)
let send_analyze t w ?defer result =
  send_reply t w.w_conn ?defer (Conn.analyze_reply ~id:w.w_id ~bin:w.w_bin result)

(* ------------------------------ workers ----------------------------- *)

(* Runs on a worker domain, one popped request at a time. *)
let serve_job t job =
  Obs.Metrics.observe h_queue_wait_ms (1000. *. (Unix.gettimeofday () -. job.enqueued_at));
  Atomic.incr t.n_served;
  Obs.Metrics.incr m_batched;
  Obs.Metrics.set_gauge g_queue_depth (float_of_int (Admission.length t.queue));
  let op = Protocol.op_name job.env.Protocol.req in
  (* A fresh span stack per request, rooted on the worker, so the
     request subtree is not entangled with the server's own spans. *)
  Obs.Trace.with_parent None (fun () ->
      Obs.Trace.with_span "server.request"
        ~args:[ ("op", op); ("rid", string_of_int job.rid) ]
        (fun () ->
          match (job.sf, job.env.Protocol.req) with
          | Some key, Protocol.Analyze { mu; tmat; _ } ->
            (* The group is keyed on the family (T alone): the leader
               computes its own instance once — populating the family
               cache as a side effect — then journals the family
               verdict and fans out.  Waiters on the same mu reuse the
               leader's result (and its single store append inside
               [analyze_wire]); waiters on other instances of the
               family re-enter [analyze_wire], which now replays the
               warm family in O(atoms). *)
            let result =
              match Handlers.analyze_wire ~store:t.store_ ~mu tmat with
              | r -> Ok r
              | exception exn -> Error (Printexc.to_string exn)
            in
            (match result with
            | Ok _ ->
              Option.iter
                (fun s ->
                  try Store.add_family s tmat (Analysis.family tmat)
                  with Fault.Injected _ | Sys_error _ | Unix.Unix_error _ -> ())
                t.store_
            | Error _ -> ());
            let waiters = Singleflight.complete t.sflight ~key in
            List.iter
              (fun w ->
                match result with
                | Ok r ->
                  if w.w_mu = mu then send_analyze t w r
                  else (
                    match Handlers.analyze_wire ~store:t.store_ ~mu:w.w_mu w.w_tmat with
                    | r' -> send_analyze t w r'
                    | exception exn ->
                      send_doc t w.w_conn
                        (Protocol.error_reply ~id:w.w_id ~code:"internal"
                           ~detail:(Printexc.to_string exn)))
                | Error msg ->
                  send_doc t w.w_conn
                    (Protocol.error_reply ~id:w.w_id ~code:"internal" ~detail:msg))
              waiters
          | _ ->
            let reply =
              match Handlers.execute ~pool:t.pool ~store:t.store_ job.env.Protocol.req with
              | fields -> Protocol.ok_reply ~id:job.env.Protocol.id ~op fields
              | exception Handlers.Bad_request msg ->
                Protocol.error_reply ~id:job.env.Protocol.id ~code:"bad_request"
                  ~detail:msg
              | exception exn ->
                Protocol.error_reply ~id:job.env.Protocol.id ~code:"internal"
                  ~detail:(Printexc.to_string exn)
            in
            send_doc t job.jconn reply));
  let latency_ms = 1000. *. (Unix.gettimeofday () -. job.enqueued_at) in
  (* Admission-to-completion latency feeds the AIMD loop: queue wait
     counts, so a backlog is itself the overload signal. *)
  Limiter.release t.limiter ~latency_ms;
  Obs.Metrics.observe h_request_ms latency_ms

(* SIGKILL-grade shutdown: refuse new work, discard everything still
   queued and (once the loop stops) slam connections without flushing
   queued replies; a request already running finishes into closed
   connections.
   Unlike [initiate_drain] nothing graceful happens — this is how the
   cluster chaos harness models a hard kill of an in-process shard
   (docs/CLUSTER.md). *)
let abort t =
  if not (Atomic.exchange t.aborting true) then begin
    Atomic.set t.draining true;
    List.iter (fun _ -> Limiter.release t.limiter ~latency_ms:0.) (Admission.abort t.queue);
    Reactor.nudge t.reactor
  end

(* ------------------------------- stats ------------------------------ *)

let store t = t.store_
let worker_deaths t = match t.batcher with Some b -> Batcher.deaths b | None -> 0

let stats_fields t =
  let groups, coalesced = Singleflight.stats t.sflight in
  let base =
    [
      ("queue_depth", Json.Int (Admission.length t.queue));
      ("draining", Json.Bool (Atomic.get t.draining));
      ("accepted", Json.Int (Atomic.get t.n_accepted));
      ("shed", Json.Int (Atomic.get t.n_shed));
      ("deadline_exceeded", Json.Int (Atomic.get t.n_deadline_exceeded));
      ( "admission",
        Json.Obj
          [
            ("limit", Json.Int (Limiter.limit t.limiter));
            ("inflight", Json.Int (Limiter.inflight t.limiter));
            ("rejected", Json.Int (Limiter.rejected t.limiter));
            ("decreases", Json.Int (Limiter.decreases t.limiter));
          ] );
      (* Both count requests served by workers, one per pop. *)
      ("batches", Json.Int (Atomic.get t.n_served));
      ("batched", Json.Int (Atomic.get t.n_served));
      ("fastpath", Json.Int (Atomic.get t.n_fastpath));
      ( "family",
        Json.Obj [ ("fastpath", Json.Int (Atomic.get t.n_family_fastpath)) ] );
      ( "singleflight",
        Json.Obj [ ("groups", Json.Int groups); ("coalesced", Json.Int coalesced) ] );
      ( "transport",
        Json.Obj
          [
            ("max", Json.Str (Wire.version_name t.cfg.max_transport));
            ("binary_negotiated", Json.Int (Atomic.get t.n_binary));
          ] );
      ("worker_deaths", Json.Int (worker_deaths t));
      ("jobs", Json.Int (Engine.Pool.jobs t.pool));
    ]
  in
  match t.store_ with
  | None -> base @ [ ("store", Json.Null) ]
  | Some s ->
    let st = Store.stats s in
    base
    @ [
        ( "store",
          Json.Obj
            [
              ("entries", Json.Int st.Store.entries);
              ("hits", Json.Int st.Store.hits);
              ("misses", Json.Int st.Store.misses);
              ("appended", Json.Int st.Store.appended);
              ("loaded", Json.Int st.Store.loaded);
              ("families", Json.Int st.Store.families);
              ("f_appended", Json.Int st.Store.f_appended);
              ("f_loaded", Json.Int st.Store.f_loaded);
              ("dropped_bytes", Json.Int st.Store.dropped_bytes);
              ("quarantined", Json.Int st.Store.quarantined);
              ("healed", Json.Int st.Store.healed);
              ("io_errors", Json.Int st.Store.io_errors);
              ("snap_entries", Json.Int st.Store.snap_entries);
              ("snap_hits", Json.Int st.Store.snap_hits);
              ("snap_corrupt", Json.Int st.Store.snap_corrupt);
              ("open_ms", Json.Float st.Store.open_ms);
              ("provenance", Json.Str st.Store.provenance);
            ] );
      ]

(* ----------------------------- dispatch ----------------------------- *)

(* Everything below runs on the single event-loop thread, so all fault
   consults — [daemon.accept], [conn.read], [conn.drop], [conn.write]
   for inline replies — stay totally ordered with the request stream,
   exactly as the per-connection reader threads ordered them before
   the rewrite (docs/RESILIENCE.md). *)

(* Loop-inline work gets its own span root per request: the event-loop
   thread's span stack is its own (per-thread stacks in [Obs.Trace]),
   and [with_parent None] roots the request subtree so fastpath spans
   are never children of whatever the loop happened to have open. *)
let with_loop_span ~path f =
  Obs.Trace.with_parent None (fun () ->
      Obs.Trace.with_span "server.request"
        ~args:[ ("op", "analyze"); ("path", path) ]
        f)

(* A draining server, or a budget spent before the request arrived
   (the router stamps the remaining budget on each forwarded frame),
   answers at once: no store lookup, no admission, no analysis. *)
let refused t conn ~id deadline_ms =
  if Atomic.get t.draining then begin
    send_doc t conn ~defer:true
      (Protocol.error_reply ~id ~code:"draining" ~detail:"server is draining");
    true
  end
  else if match deadline_ms with Some d -> d <= 0 | None -> false then begin
    Atomic.incr t.n_deadline_exceeded;
    Obs.Metrics.incr m_deadline_exceeded;
    send_doc t conn ~defer:true
      (Protocol.error_reply ~id ~code:"deadline_exceeded"
         ~detail:"request deadline already spent");
    true
  end
  else false

(* The worker domains to run before [env] is queued: one per pool
   domain beyond the loop's, and at least two once a request that can
   run for seconds (a search, simulate or replay) is admitted, so that
   one cannot hold up every queued cold analyze.  An analyze-only
   daemon at jobs <= 2 runs one, and saves a second domain's memory. *)
let workers t env =
  let n = Engine.Pool.jobs t.pool - 1 in
  match env.Protocol.req with Protocol.Analyze _ -> max 1 n | _ -> max 2 n

(* The one admission path for queued work.  The AIMD limiter gates
   queued compute only — ping/stats/drain/hello/ship are answered
   inline and can never shed behind analyze traffic — and it counts
   queued plus running requests, so the queue needs no bound of its
   own.  [refuse] answers a refusal with its error code and detail. *)
let admit t conn env ~sf ~refuse =
  let shed detail =
    Atomic.incr t.n_shed;
    Obs.Metrics.incr m_shed;
    refuse ~code:"overloaded" detail
  in
  if not (Limiter.try_admit t.limiter) then
    shed (Printf.sprintf "admission limit reached (%d inflight)" (Limiter.limit t.limiter))
  else if
    not (Option.fold ~none:false ~some:(fun b -> Batcher.start b (workers t env)) t.batcher)
  then begin
    (* The runtime refused every worker domain (its domain limit):
       queue nothing that no worker would pop.  The next admission
       tries again. *)
    Limiter.release t.limiter ~latency_ms:0.;
    shed "no worker domain available"
  end
  else begin
    let rid = Atomic.fetch_and_add t.next_id 1 in
    let job = { rid; env; jconn = conn; enqueued_at = Unix.gettimeofday (); sf } in
    if Admission.try_push t.queue job then begin
      Atomic.incr t.n_accepted;
      Obs.Metrics.incr m_accepted;
      Obs.Metrics.set_gauge g_queue_depth (float_of_int (Admission.length t.queue))
    end
    else begin
      (* Only a drain or an abort closes the queue, here between
         [refused] and the push: answer as [refused] would have, and
         give the slot back without an AIMD backoff. *)
      Limiter.release t.limiter ~latency_ms:0.;
      refuse ~code:"draining" "server is draining"
    end
  end

let handle_analyze t conn ~bin ~id ~mu ~tmat ~deadline_ms =
  if not (refused t conn ~id deadline_ms) then
    let w = { w_conn = conn; w_id = id; w_bin = bin; w_mu = mu; w_tmat = tmat } in
    match Option.bind t.store_ (fun s -> Store.find s ~mu tmat) with
    | Some e ->
      (* Warm fast path: a stored verdict is encoded straight from the
         event loop — no queue, no worker handoff. *)
      with_loop_span ~path:"fastpath" (fun () ->
          Atomic.incr t.n_fastpath;
          Obs.Metrics.incr m_fastpath;
          send_analyze t ~defer:true w (e, "hit"))
    | None -> (
      let family_verdict =
        match t.store_ with
        | None -> None
        | Some s ->
          Option.bind (Store.find_family s tmat) (fun fam ->
              match Analysis.eval_family fam ~mu with
              | v -> Option.map (fun v -> (s, v)) v
              | exception Invalid_argument _ -> None)
      in
      match family_verdict with
      | Some (s, v) ->
        (* Family fast path: a journaled family verdict decides this
           instance in O(atoms) of its piecewise condition, still
           inline on the event loop.  The concrete entry it implies is
           appended so the next identical query is a plain hit; as in
           [Handlers.analyze_wire], a failed append degrades the
           status, never the verdict. *)
        with_loop_span ~path:"family" (fun () ->
            let e = Store.entry_of_verdict v in
            Atomic.incr t.n_family_fastpath;
            Obs.Metrics.incr m_family_fastpath;
            let status =
              match Store.add s ~mu tmat e with
              | () -> "family"
              | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) ->
                "error"
            in
            send_analyze t ~defer:true w (e, status))
      | None -> (
        (* Singleflight groups key on the family (T alone): one
           leader's symbolic analysis serves every coalesced
           instance. *)
        let key = Store.family_key_string tmat in
        match Singleflight.join t.sflight ~key w with
        | `Follower -> Obs.Metrics.incr m_coalesced
        | `Leader ->
          let env = { Protocol.id; req = Protocol.Analyze { mu; tmat; deadline_ms } } in
          admit t conn env ~sf:(Some key) ~refuse:(fun ~code detail ->
              (* The whole group is refused: followers joined an
                 admission that never happened. *)
              List.iter
                (fun w ->
                  send_doc t w.w_conn ~defer:true
                    (Protocol.error_reply ~id:w.w_id ~code ~detail))
                (Singleflight.complete t.sflight ~key))))

let handle_envelope t conn ~bin (env : Protocol.envelope) =
  let id = env.Protocol.id in
  let op = Protocol.op_name env.Protocol.req in
  match env.Protocol.req with
  | Protocol.Analyze { mu; tmat; deadline_ms } ->
    handle_analyze t conn ~bin ~id ~mu ~tmat ~deadline_ms
  | Protocol.Ship { seq; line } ->
    (* Answered inline like ping: applying a shipped record is one
       store call, and keeping it off the pool preserves ship-order
       per connection (the shipper pipelines on one session). *)
    let reply =
      if Atomic.get t.draining then
        Protocol.error_reply ~id ~code:"draining" ~detail:"server is draining"
      else
        match t.store_ with
        | None -> Protocol.error_reply ~id ~code:"bad_request" ~detail:"no store attached"
        | Some s -> (
          match Store.ingest_line s line with
          | Ok () -> Protocol.ok_reply ~id ~op [ ("watermark", Json.Int seq) ]
          | Error msg ->
            Protocol.error_reply ~id ~code:"bad_request"
              ~detail:("bad ship record: " ^ msg)
          | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) ->
            (* The record is not applied; an [internal] reply is not
               retried by sessions, so surface it as [overloaded] —
               the shipper re-ships from its watermark. *)
            Protocol.error_reply ~id ~code:"overloaded" ~detail:"ship append failed")
    in
    send_doc t conn ~defer:true reply
  | Protocol.Ping -> send_doc t conn ~defer:true (Protocol.ok_reply ~id ~op [])
  | Protocol.Stats ->
    send_doc t conn ~defer:true (Protocol.ok_reply ~id ~op (stats_fields t))
  | Protocol.Drain ->
    send_doc t conn ~defer:true (Protocol.ok_reply ~id ~op [ ("draining", Json.Bool true) ]);
    initiate_drain t
  | Protocol.Hello { transport } -> (
    match Conn.hello conn ~id ~max:t.cfg.max_transport transport with
    | Ok Wire.V2 -> Atomic.incr t.n_binary
    | Ok Wire.V1 -> ()
    | Error reply -> send_doc t conn ~defer:true reply)
  | Protocol.Search _ | Protocol.Simulate _ | Protocol.Replay _ ->
    if not (refused t conn ~id (Protocol.deadline_ms env.Protocol.req)) then
      admit t conn env ~sf:None ~refuse:(fun ~code detail ->
          send_doc t conn ~defer:true (Protocol.error_reply ~id ~code ~detail))

(* ------------------------------ create ------------------------------ *)

let create cfg =
  (* Store before socket: an unusable store path must not leave a
     bound socket (or a just-unlinked stale one) behind. *)
  let store_ =
    Option.map
      (fun p -> Store.open_ ~fsync_every:cfg.fsync_every ?snapshot:cfg.snapshot_path p)
      cfg.store_path
  in
  let reactor =
    try Reactor.create ~listen:cfg.listen ()
    with e ->
      Option.iter Store.close store_;
      raise e
  in
  let t =
    {
      cfg;
      pool = Engine.Pool.create ?jobs:cfg.jobs ();
      store_;
      queue = Admission.create ();
      limiter = Limiter.create ~min_limit:4 ~max_limit:256 ();
      batcher = None;
      draining = Atomic.make false;
      aborting = Atomic.make false;
      reactor;
      sflight = Singleflight.create ();
      next_id = Atomic.make 0;
      n_accepted = Atomic.make 0;
      n_shed = Atomic.make 0;
      n_served = Atomic.make 0;
      n_fastpath = Atomic.make 0;
      n_family_fastpath = Atomic.make 0;
      n_binary = Atomic.make 0;
      n_deadline_exceeded = Atomic.make 0;
    }
  in
  t.batcher <- Some (Batcher.create ~queue:t.queue ~handle:(serve_job t));
  t

let port t = Reactor.port t.reactor

(* -------------------------------- run ------------------------------- *)

(* Every fault site of a connection is consulted on the loop thread,
   so the decisions stay ordered with the request stream: [daemon.accept]
   on each accepted connection, and [conn.slow], [conn.read] and
   [conn.drop] on each chunk read, after the read — the peer sending
   these bytes proves it has consumed every earlier reply, so tearing
   down now can never race a reply still in flight.  [conn.read]
   models a transport reset while reading a request, [conn.drop] a
   hang-up between requests; either way the just-read bytes are
   discarded with the connection and the peer re-issues on a fresh
   one.  [conn.slow] first: a gray failure stalls the whole loop for
   the plan's delay — the slow-shard scenario the hedging and breaker
   machinery exists for — without failing anything (ambient, never
   logged per event).  An injected [daemon.accept] fault closes the
   fresh connection before it is ever serviced; the peer sees an
   immediate EOF and reconnects. *)
let accept t conn =
  if Fault.should_fail "daemon.accept" then None
  else begin
    Obs.Metrics.incr m_conns;
    let on_read () =
      Fault.stall "conn.slow";
      if Fault.should_fail "conn.read" || Fault.should_fail "conn.drop" then Conn.close conn
      else
        Conn.pull conn
          ~reject:(send_doc t conn ~defer:true)
          (fun ~bin env -> handle_envelope t conn ~bin env)
    in
    Some { Reactor.on_read; on_hangup = ignore }
  end

(* The drain policy.  On the first round that sees a drain, stop
   accepting at once; a joiner thread turns the workers' join into a
   nudge, so replies queued by the last workers still flush through
   the reactor.  Once the workers are done the flush gets 5 s — a peer
   that never reads its replies must not wedge the shutdown — checked
   every 50 ms, since the writes before a wait may finish output the
   check saw pending and leave nothing to wake it.  An abort stops the
   loop at once. *)
let run t =
  let drain_seen = ref false and flush_by = ref infinity in
  let workers_done = Atomic.make false in
  Reactor.run t.reactor ~accept:(accept t)
    ~wake:(fun ~drain -> if drain then initiate_drain t)
    (fun () ->
      if Atomic.get t.aborting then None
      else begin
        if Atomic.get t.draining && not !drain_seen then begin
          drain_seen := true;
          Reactor.close_listener t.reactor;
          ignore
            (Thread.create
               (fun () ->
                 Option.iter Batcher.join t.batcher;
                 Atomic.set workers_done true;
                 Reactor.nudge t.reactor)
               ())
        end;
        if not (Atomic.get workers_done) then Some infinity
        else begin
          let now = Unix.gettimeofday () in
          if !flush_by = infinity then flush_by := now +. 5.0;
          if now > !flush_by || not (Reactor.pending t.reactor) then None
          else Some (Float.min !flush_by (now +. 0.05))
        end
      end);
  (* [initiate_drain] here only covers a [run] that never saw a drain.
     Workers are done: every accepted request got its reply bytes
     queued, and the loop flushed them (or timed out on a peer that
     stopped reading) — unless an abort dropped them. *)
  initiate_drain t;
  Reactor.close t.reactor;
  Option.iter Store.close t.store_
