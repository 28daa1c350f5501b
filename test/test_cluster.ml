(* Tests for the cluster tier: consistent-hash placement, the
   hash-indexed snapshot format (round trip, truncated footer,
   bit-flipped index, journal-tail precedence, O(1) open), journal
   shipping over the [ship] op, and a live router — differential
   forwarding over two shards plus an async failover promotion. *)

module Store = Server.Store
module Protocol = Server.Protocol
module Daemon = Server.Daemon
module Client = Server.Client
module Snapshot = Server.Snapshot
module Ring = Cluster.Ring
module Router = Cluster.Router
module Shipper = Cluster.Shipper
module Health = Cluster.Health
module Wire = Server.Wire
module Chaos = Cluster.Chaos

let fresh_path =
  let counter = ref 0 in
  fun suffix ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sf-cluster-%d-%d%s" (Unix.getpid ()) !counter suffix)

let rm path = try Sys.remove path with Sys_error _ -> ()

let mu1 = [| 4; 4; 4 |]
let t1 = Intmat.of_ints [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ]
let mu2 = [| 6; 6; 6; 6 |]
let t2 = Intmat.of_ints [ [ 1; 7; 1; 1 ]; [ 1; 7; 1; 0 ] ]

(* -------------------------------- ring ------------------------------ *)

let test_ring_placement () =
  (* Placement is a pure function of (shards, vnodes): two builds
     agree everywhere, and every shard owns a non-trivial share. *)
  let a = Ring.make ~vnodes:64 3 and b = Ring.make ~vnodes:64 3 in
  for i = 0 to 999 do
    let h = Ring.fnv1a (Printf.sprintf "probe:%d" i) in
    Alcotest.(check int)
      (Printf.sprintf "deterministic probe %d" i)
      (Ring.shard_of a h) (Ring.shard_of b h)
  done;
  let hist = Ring.spread a ~samples:10_000 in
  Alcotest.(check int) "three buckets" 3 (Array.length hist);
  Alcotest.(check int) "all samples placed" 10_000
    (Array.fold_left ( + ) 0 hist);
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns >= 10%%" i)
        true
        (n >= 1_000))
    hist;
  (* One shard degenerates to the identity placement. *)
  let solo = Ring.make 1 in
  Alcotest.(check int) "solo ring" 0 (Ring.shard_of solo 0xDEADBEEF)

(* ---------------------------- snapshots ----------------------------- *)

let entry_a = (* deliberately synthetic, distinguishable entries *)
  { Store.conflict_free = true; full_rank = true;
    decided_by = "snapshot-side"; witness = None }

let entry_b =
  { Store.conflict_free = false; full_rank = true;
    decided_by = "journal-side"; witness = Some [ 1; 2; 3 ] }

let test_snapshot_roundtrip () =
  let journal = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ journal in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  Store.add s ~mu:mu1 t1 e1;
  Store.add s ~mu:mu2 t2 e2;
  let n = Store.compact_to_snapshot s ~snapshot:snap in
  Alcotest.(check int) "compacted records" 2 n;
  Store.close s;
  (* Reopen: the warm start comes from the snapshot, not replay. *)
  let s = Store.open_ ~snapshot:snap journal in
  let st = Store.stats s in
  Alcotest.(check string) "provenance" "snapshot+tail" st.Store.provenance;
  Alcotest.(check int) "no journal replay" 0 st.Store.loaded;
  Alcotest.(check int) "snapshot entries" 2 st.Store.snap_entries;
  Alcotest.(check bool) "key 1 served" true (Store.find s ~mu:mu1 t1 = Some e1);
  Alcotest.(check bool) "key 2 served" true (Store.find s ~mu:mu2 t2 = Some e2);
  let st = Store.stats s in
  Alcotest.(check bool) "snapshot hits counted" true (st.Store.snap_hits >= 2);
  Alcotest.(check bool) "open is fast and measured" true (st.Store.open_ms >= 0.0);
  Store.close s;
  rm journal;
  rm snap

let test_snapshot_truncated_footer () =
  let journal = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ journal in
  Store.add s ~mu:mu1 t1 entry_a;
  Store.add s ~mu:mu2 t2 entry_b;
  ignore (Store.write_snapshot s snap);
  Store.close s;
  (* Chop the footer: the snapshot must fail open cleanly and the
     store must fall back to a plain journal replay. *)
  let size = (Unix.stat snap).Unix.st_size in
  let fd = Unix.openfile snap [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 5);
  Unix.close fd;
  (match Snapshot.open_reader snap with
  | Ok _ -> Alcotest.fail "truncated snapshot opened"
  | Error _ -> ());
  let s = Store.open_ ~snapshot:snap journal in
  let st = Store.stats s in
  Alcotest.(check string) "fell back to replay" "replay" st.Store.provenance;
  Alcotest.(check int) "no snapshot entries" 0 st.Store.snap_entries;
  Alcotest.(check int) "journal replayed instead" 2 st.Store.loaded;
  Alcotest.(check bool) "key 1 served" true
    (Store.find s ~mu:mu1 t1 = Some entry_a);
  Alcotest.(check bool) "key 2 served" true
    (Store.find s ~mu:mu2 t2 = Some entry_b);
  Store.close s;
  rm journal;
  rm snap

let read_u64_be ic pos =
  seek_in ic pos;
  let v = ref 0 in
  for _ = 1 to 8 do
    v := (!v lsl 8) lor input_byte ic
  done;
  !v

let test_snapshot_bit_flip () =
  let journal = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ journal in
  Store.add s ~mu:mu1 t1 entry_a;
  Store.add s ~mu:mu2 t2 entry_b;
  ignore (Store.compact_to_snapshot s ~snapshot:snap);
  Store.close s;
  (* Damage the first index entry's offset field.  The index is sorted
     by (kind, hash), so the victim is the key with the smaller
     content hash; the other key must keep serving. *)
  let h1 = Store.key_hash ~mu:mu1 t1 and h2 = Store.key_hash ~mu:mu2 t2 in
  let ic = open_in_bin snap in
  let size = in_channel_length ic in
  let index_off = read_u64_be ic (size - 16) in
  close_in ic;
  let fd = Unix.openfile snap [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (index_off + 5) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd (index_off + 5) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let s = Store.open_ ~snapshot:snap journal in
  let victim_mu, victim_t, ok_mu, ok_t, ok_entry =
    if h1 <= h2 then (mu1, t1, mu2, t2, entry_b)
    else (mu2, t2, mu1, t1, entry_a)
  in
  Alcotest.(check bool) "damaged entry degrades to a miss" true
    (Store.find s ~mu:victim_mu victim_t = None);
  Alcotest.(check bool) "undamaged entry still serves" true
    (Store.find s ~mu:ok_mu ok_t = Some ok_entry);
  let st = Store.stats s in
  Alcotest.(check bool) "corruption counted, not fatal" true
    (st.Store.snap_corrupt >= 1);
  Store.close s;
  rm journal;
  rm snap

let test_snapshot_tail_precedence () =
  (* A journal-tail record for a key present in the snapshot must
     shadow the snapshot (last-wins). *)
  let j1 = fresh_path ".store" in
  let j2 = fresh_path ".store" in
  let snap = fresh_path ".snap" in
  let s = Store.open_ j1 in
  Store.add s ~mu:mu1 t1 entry_a;
  ignore (Store.write_snapshot s snap);
  Store.close s;
  let s = Store.open_ j2 in
  Store.add s ~mu:mu1 t1 entry_b;
  Store.close s;
  let s = Store.open_ ~snapshot:snap j2 in
  let st = Store.stats s in
  Alcotest.(check string) "provenance" "snapshot+tail" st.Store.provenance;
  Alcotest.(check bool) "journal tail wins" true
    (Store.find s ~mu:mu1 t1 = Some entry_b);
  Store.close s;
  rm j1;
  rm j2;
  rm snap

let test_snapshot_open_is_o1 () =
  let synthetic n =
    List.init n (fun i ->
        ('v', i * 7, Printf.sprintf "k%d" i, Printf.sprintf "line %d" i))
  in
  let small = fresh_path ".snap" and large = fresh_path ".snap" in
  ignore (Snapshot.write small (synthetic 100));
  ignore (Snapshot.write large (synthetic 5_000));
  let open_reads path count =
    match Snapshot.open_reader path with
    | Error e -> Alcotest.fail e
    | Ok r ->
      Alcotest.(check int) "entries" count (Snapshot.entries r);
      let n = Snapshot.reads r in
      Snapshot.close r;
      n
  in
  let rs = open_reads small 100 and rl = open_reads large 5_000 in
  Alcotest.(check int) "open cost is 2 reads (small)" 2 rs;
  Alcotest.(check int) "open cost is 2 reads (50x larger)" 2 rl;
  (* The first query adds one index read plus one read per located
     line — still bounded, never a function of snapshot size. *)
  (match Snapshot.open_reader large with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let lines = Snapshot.find_all r ~kind:'v' ~hash:7 in
    Alcotest.(check (list string)) "located line" [ "line 1" ] lines;
    Alcotest.(check bool) "query cost bounded" true (Snapshot.reads r <= 4);
    Snapshot.close r);
  rm small;
  rm large

(* ------------------------------ shipping ---------------------------- *)

let boot_daemon ?(jobs = 1) ?(tcp = false) store_path =
  let sock = fresh_path ".sock" in
  let cfg =
    {
      (Daemon.default_config (if tcp then Daemon.Tcp 0 else Daemon.Unix_sock sock)) with
      jobs = Some jobs;
      store_path = Some store_path;
      fsync_every = 4;
    }
  in
  let d = Daemon.create cfg in
  let th = Thread.create Daemon.run d in
  (d, th, sock)

let stop_daemon (d, th, _sock) =
  Daemon.initiate_drain d;
  Thread.join th

let daemon_addr (d, _, sock) : Client.addr =
  match Daemon.port d with Some port -> `Tcp ("127.0.0.1", port) | None -> `Unix sock

let journal_record_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  match lines with [] -> [] | _header :: records -> records

let test_ship_op () =
  (* Build one valid journal record, then drive the follower's [ship]
     op directly: ack with watermark echo, idempotent re-ship, and a
     malformed record rejected without damage. *)
  let src = fresh_path ".store" in
  let s = Store.open_ src in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  Store.add s ~mu:mu1 t1 e1;
  Store.close s;
  let line =
    match journal_record_lines src with
    | [ l ] -> l
    | ls -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length ls))
  in
  let follower_journal = fresh_path ".store" in
  let f = boot_daemon follower_journal in
  let _, _, sock = f in
  let conn = Client.connect (`Unix sock) in
  let reply =
    Client.request conn (Protocol.ship ~id:(Json.Int 1) ~seq:42 ~record:line ())
  in
  Alcotest.(check bool) "ship acked" true (Protocol.reply_ok reply);
  (match Json.member "watermark" reply with
  | Some (Json.Int 42) -> ()
  | _ -> Alcotest.fail "ship ack without watermark echo");
  let again =
    Client.request conn (Protocol.ship ~id:(Json.Int 2) ~seq:42 ~record:line ())
  in
  Alcotest.(check bool) "re-ship is idempotent" true (Protocol.reply_ok again);
  let bad =
    Client.request conn
      (Protocol.ship ~id:(Json.Int 3) ~seq:43 ~record:"not a journal record" ())
  in
  Alcotest.(check bool) "malformed record rejected" false (Protocol.reply_ok bad);
  Alcotest.(check (option string)) "bad_request" (Some "bad_request")
    (Protocol.error_code bad);
  Client.close conn;
  stop_daemon f;
  (* The shipped record landed in the follower's own journal. *)
  let fs = Store.open_ follower_journal in
  Alcotest.(check bool) "record replicated" true
    (Store.find fs ~mu:mu1 t1 = Some e1);
  Store.close fs;
  rm src;
  rm follower_journal

let test_shipper_pump () =
  let src = fresh_path ".store" in
  let follower_journal = fresh_path ".store" in
  let s = Store.open_ src in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  Store.add s ~mu:mu1 t1 e1;
  Store.add s ~mu:mu2 t2 e2;
  Store.flush s;
  let f = boot_daemon follower_journal in
  let _, _, sock = f in
  let sh = Shipper.create ~journal:src ~follower:(`Unix sock) () in
  Alcotest.(check int) "first pump ships everything" 2 (Shipper.pump sh);
  Alcotest.(check int) "second pump ships nothing" 0 (Shipper.pump sh);
  Alcotest.(check int) "watermark at end of journal" (Unix.stat src).Unix.st_size
    (Shipper.watermark sh);
  (* New appends ship incrementally. *)
  Store.add s ~mu:[| 5; 5; 5 |] t1
    (Store.entry_of_verdict (Analysis.check ~mu:[| 5; 5; 5 |] t1));
  Store.flush s;
  Alcotest.(check int) "incremental pump" 1 (Shipper.pump sh);
  Store.close s;
  Shipper.close sh;
  stop_daemon f;
  let fs = Store.open_ follower_journal in
  Alcotest.(check bool) "key 1 replicated" true (Store.find fs ~mu:mu1 t1 = Some e1);
  Alcotest.(check bool) "key 2 replicated" true (Store.find fs ~mu:mu2 t2 = Some e2);
  Alcotest.(check bool) "late key replicated" true
    (Store.find fs ~mu:[| 5; 5; 5 |] t1 <> None);
  Store.close fs;
  rm src;
  rm follower_journal

(* ------------------------------- router ----------------------------- *)

let boot_router ?(health_interval_ms = 60_000) ?(health_threshold = 3)
    ?(hedge = Router.No_hedge) ?(transport = Wire.V1) specs =
  let sock = fresh_path ".sock" in
  let cfg =
    {
      (Router.default_config (Daemon.Unix_sock sock) specs) with
      pool_size = 1;
      shard_transport = transport;
      health_interval_ms;
      health_threshold;
      hedge;
    }
  in
  let r = Router.create cfg in
  let th = Thread.create Router.run r in
  (r, th, sock)

let stop_router (r, th, _sock) =
  Router.initiate_drain r;
  Thread.join th

let direct_verdict (inst : Check.Instance.t) =
  Json.to_string
    (Protocol.json_of_wire
       (Protocol.wire_of_verdict
          (Analysis.check ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat)))

(* One exchange on a fresh raw connection, after a [hello] when
   [binary]: the request bytes out, the first reply's bytes back
   exactly as they came off the wire.  A peer that never answers fails
   the read after 5 s. *)
let raw_exchange ?(binary = false) addr request =
  let sa = Client.sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      Unix.connect fd sa;
      let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
      let read_exact n =
        let b = Bytes.create n in
        let rec go off =
          if off < n then
            match Unix.read fd b off (n - off) with
            | 0 -> Alcotest.fail "connection closed mid-reply"
            | k -> go (off + k)
        in
        go 0;
        Bytes.to_string b
      in
      let rec read_line acc =
        match read_exact 1 with "\n" -> acc | c -> read_line (acc ^ c)
      in
      if binary then begin
        send "{\"op\":\"hello\",\"transport\":\"binary\"}\n";
        ignore (read_line "")
      end;
      send request;
      if binary then
        let header = read_exact 4 in
        header ^ read_exact (Int32.to_int (String.get_int32_be header 0))
      else read_line "")

(* [tcp] puts the shards on loopback TCP, where the router's upstream
   connects complete asynchronously. *)
let test_router_differential ?(tcp = false) transport () =
  let j0 = fresh_path ".store" and j1 = fresh_path ".store" in
  let s0 = boot_daemon ~tcp j0 and s1 = boot_daemon ~tcp j1 in
  let addr0 = daemon_addr s0 and addr1 = daemon_addr s1 in
  let specs =
    [
      { Router.primary = addr0; follower = None; journal = Some j0 };
      { Router.primary = addr1; follower = None; journal = Some j1 };
    ]
  in
  let r = boot_router ~transport specs in
  let router, _, rsock = r in
  let raddr = `Unix rsock in
  (* A verifying load through the router, in the same dialect on both
     sides of it (binary pipelines): every verdict byte-equal to a
     local Analysis.check, nothing shed, nothing lost. *)
  let report =
    Client.load raddr
      {
        Client.default_load with
        requests = 80;
        concurrency = 4;
        distinct = 16;
        seed = 3;
        verify = true;
        transport;
        pipeline = (match transport with Wire.V1 -> 1 | Wire.V2 -> 8);
      }
  in
  Alcotest.(check int) "all ok" 80 report.Client.ok;
  Alcotest.(check int) "no errors" 0 report.Client.errors;
  Alcotest.(check int) "no shed" 0 report.Client.shed;
  Alcotest.(check int) "no disagreements" 0 report.Client.disagreements;
  let inst = Check.Gen.ith ~seed:3 ~size:4 0 in
  let mu = inst.Check.Instance.mu and tmat = inst.Check.Instance.tmat in
  let owner = [| addr0; addr1 |].(Ring.shard_of (Router.ring router) (Store.family_hash tmat)) in
  let binary = transport = Wire.V2 in
  (* A raw binary analyze of a key the load warmed comes back as the
     same ['V'] frame the owning shard sends when asked directly. *)
  if binary then begin
    let frame = Wire.encode Wire.V2 (Wire.Bin_analyze { id = 41; deadline_ms = None; mu; tmat }) in
    let direct = raw_exchange ~binary owner frame in
    let routed = raw_exchange ~binary raddr frame in
    Alcotest.(check char) "routed reply is a V frame" 'V' routed.[4];
    Alcotest.(check string) "byte-identical to the owning shard's reply" direct routed
  end;
  (* A deadline wider than an ['A'] frame's i32 field still gets the
     owning shard's answer, and the router keeps serving. *)
  let wide =
    Wire.encode transport
      (Wire.Text
         (Json.to_string
            (Protocol.analyze ~id:(Json.Int 12) ~deadline_ms:3_000_000_000 ~mu tmat)))
  in
  Alcotest.(check string) "deadline past i32"
    (raw_exchange ~binary owner wide)
    (raw_exchange ~binary raddr wide);
  (* A negative deadline is a bad request, directly and through the
     router, whose ['A'] frame has no encoding for it. *)
  let negative =
    Wire.encode transport
      (Wire.Text
         (Json.to_string (Protocol.analyze ~id:(Json.Int 13) ~deadline_ms:(-5) ~mu tmat)))
  in
  let direct = raw_exchange ~binary owner negative in
  Alcotest.(check string) "negative deadline" direct (raw_exchange ~binary raddr negative);
  Alcotest.(check (option string)) "negative deadline refused" (Some "bad_request")
    (match Json.parse (if binary then String.sub direct 5 (String.length direct - 5) else direct) with
    | Ok reply -> Protocol.error_code reply
    | Error _ -> None);
  (* A request that does not decode gets the reply a daemon sends, id
     included: a session matches replies by id, so a dropped id costs
     it every retry. *)
  List.iter
    (fun line ->
      Alcotest.(check string) line
        (raw_exchange addr0 (line ^ "\n"))
        (raw_exchange raddr (line ^ "\n")))
    [ {|{"id":7,"op":"nope"}|}; "{not json}" ];
  (* Router-inline ops: ping and stats on a fresh connection, stats
     identifying the role; ship is refused (replication is
     shard-direct, never through the router). *)
  let conn = Client.connect raddr in
  Alcotest.(check bool) "ping answered" true
    (Protocol.reply_ok (Client.request conn (Protocol.ping ~id:(Json.Int 8) ())));
  let stats = Client.request conn (Protocol.stats_request ~id:(Json.Int 9) ()) in
  (match Json.member "role" stats with
  | Some (Json.Str "router") -> ()
  | _ -> Alcotest.fail "stats reply without role=router");
  let ship =
    Client.request conn (Protocol.ship ~id:(Json.Int 10) ~seq:1 ~record:"x" ())
  in
  Alcotest.(check (option string)) "ship refused" (Some "bad_request")
    (Protocol.error_code ship);
  Client.close conn;
  stop_router r;
  stop_daemon s0;
  stop_daemon s1;
  rm j0;
  rm j1

let test_router_socket_guard () =
  (* The daemon's stale-socket policy: a --socket path holding a
     regular file is refused and left byte-for-byte alone. *)
  let path = fresh_path ".journal" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "precious");
  let specs = [ { Router.primary = `Unix (fresh_path ".sock"); follower = None; journal = None } ] in
  Alcotest.(check bool) "regular file refused" true
    (match Router.create (Router.default_config (Daemon.Unix_sock path) specs) with
    | _ -> false
    | exception Failure _ -> true);
  Alcotest.(check string) "file untouched" "precious"
    (In_channel.with_open_bin path In_channel.input_all);
  rm path

let test_router_failover () =
  (* One shard with a follower; kill the primary and let the health
     monitor promote.  Served bytes must stay correct across the
     transition and no acked write may be lost. *)
  let pj = fresh_path ".store" and fj = fresh_path ".store" in
  let primary = boot_daemon pj in
  let follower = boot_daemon fj in
  let _, _, psock = primary and _, _, fsock = follower in
  let specs =
    [
      {
        Router.primary = `Unix psock;
        follower = Some (`Unix fsock);
        journal = Some pj;
      };
    ]
  in
  let r = boot_router ~health_interval_ms:50 ~health_threshold:2 specs in
  let router, _, rsock = r in
  let inst = Check.Gen.ith ~seed:11 ~size:4 0 in
  let expected = direct_verdict inst in
  let analyze id =
    Protocol.analyze ~id:(Json.Int id)
      ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat
  in
  let session = Client.session (`Unix rsock) in
  (match Client.call session (analyze 0) with
  | Ok (reply, _) ->
    Alcotest.(check bool) "pre-kill ok" true (Protocol.reply_ok reply);
    (match Json.member "verdict" reply with
    | Some v -> Alcotest.(check string) "pre-kill bytes" expected (Json.to_string v)
    | None -> Alcotest.fail "analyze reply without verdict")
  | Error e -> Alcotest.fail ("pre-kill analyze failed: " ^ e));
  stop_daemon primary;
  (* Poll until the monitor promotes the follower and service resumes;
     session retries absorb the overloaded window. *)
  let deadline = 200 in
  let rec await n =
    if n >= deadline then Alcotest.fail "failover never completed"
    else
      match Client.call session (analyze (1000 + n)) with
      | Ok (reply, _) when Protocol.reply_ok reply -> reply
      | _ ->
        Thread.delay 0.05;
        await (n + 1)
  in
  let reply = await 0 in
  (match Json.member "verdict" reply with
  | Some v ->
    Alcotest.(check string) "post-failover bytes" expected (Json.to_string v)
  | None -> Alcotest.fail "post-failover reply without verdict");
  (match List.assoc_opt "promotions" (Router.stats_fields router) with
  | Some (Json.Int n) -> Alcotest.(check int) "one promotion" 1 n
  | _ -> Alcotest.fail "router stats without promotions");
  Client.close_session session;
  stop_router r;
  stop_daemon follower;
  rm pj;
  rm fj

let test_health_breaker () =
  (* The latency breaker state machine: Closed opens on an EWMA over
     the limit, cools down to Half_open on the probe stream, and a
     fast trial recovers (restarting the EWMA) while a slow one
     re-opens.  The crash edge — [`Failed] exactly on the threshold-th
     consecutive failure — is untouched by any of it. *)
  let h = Health.create ~threshold:3 ~latency_limit_ms:10. ~cooldown:2 () in
  Alcotest.(check string) "starts closed" "closed" (Health.state_name h);
  Alcotest.(check bool) "fast probe ok" true (Health.note h ~latency_ms:1. ~ok:true () = `Ok);
  Alcotest.(check bool) "still ok" true (Health.note h ~latency_ms:2. ~ok:true () = `Ok);
  Alcotest.(check string) "fast probes keep it closed" "closed" (Health.state_name h);
  (* One grossly slow probe drags the EWMA (alpha 0.3) over 10 ms. *)
  Alcotest.(check bool) "slow probe opens" true
    (Health.note h ~latency_ms:100. ~ok:true () = `Opened);
  Alcotest.(check string) "open" "open" (Health.state_name h);
  let frozen = Health.ewma_ms h in
  (* While open the EWMA is frozen and [cooldown] probes tick it to
     half-open; the transition itself is not news. *)
  Alcotest.(check bool) "cooldown 1" true (Health.note h ~latency_ms:100. ~ok:true () = `Ok);
  Alcotest.(check string) "still open" "open" (Health.state_name h);
  Alcotest.(check bool) "cooldown 2" true (Health.note h ~latency_ms:100. ~ok:true () = `Ok);
  Alcotest.(check string) "half-open after cooldown" "half_open" (Health.state_name h);
  Alcotest.(check (float 0.001)) "ewma frozen while open" frozen (Health.ewma_ms h);
  (* Slow trial: straight back to open. *)
  Alcotest.(check bool) "slow trial re-opens" true
    (Health.note h ~latency_ms:50. ~ok:true () = `Ok);
  Alcotest.(check string) "re-opened" "open" (Health.state_name h);
  Alcotest.(check bool) "cooldown again 1" true (Health.note h ~latency_ms:50. ~ok:true () = `Ok);
  Alcotest.(check bool) "cooldown again 2" true (Health.note h ~latency_ms:50. ~ok:true () = `Ok);
  Alcotest.(check string) "half-open again" "half_open" (Health.state_name h);
  (* Fast trial: recovered, EWMA restarted from the trial sample. *)
  Alcotest.(check bool) "fast trial recovers" true
    (Health.note h ~latency_ms:3. ~ok:true () = `Recovered);
  Alcotest.(check string) "closed again" "closed" (Health.state_name h);
  Alcotest.(check (float 0.001)) "ewma restarted" 3. (Health.ewma_ms h);
  Alcotest.(check int) "two opens counted" 2 (Health.opens h);
  (* Crash edge: exactly one [`Failed], on the third failure in a row. *)
  Alcotest.(check bool) "failure 1" true (Health.note h ~ok:false () = `Ok);
  Alcotest.(check bool) "failure 2" true (Health.note h ~ok:false () = `Ok);
  Alcotest.(check bool) "failure 3 crosses" true (Health.note h ~ok:false () = `Failed);
  Alcotest.(check bool) "staying down is not news" true (Health.note h ~ok:false () = `Ok)

let test_router_hedging () =
  (* One shard, latency faults at rate 1: the primary cannot answer
     before the hedge delay, so every analyze re-issues on the
     follower.  The winning reply must be byte-identical to a local
     check, and both journals must end up holding the same record —
     the byte-exactness that makes hedging safe. *)
  let pj = fresh_path ".store" and fj = fresh_path ".store" in
  let primary = boot_daemon pj in
  let follower = boot_daemon fj in
  let _, _, psock = primary and _, _, fsock = follower in
  let specs =
    [
      {
        Router.primary = `Unix psock;
        follower = Some (`Unix fsock);
        journal = Some pj;
      };
    ]
  in
  let r = boot_router ~hedge:(Router.Fixed_ms 0) specs in
  let router, _, rsock = r in
  let instances = Array.init 6 (fun i -> Check.Gen.ith ~seed:19 ~size:4 i) in
  let plan = Fault.Plan.make ~rate:1.0 ~seed:5 ~delay_ms:15 ~classes:[ "latency" ] () in
  Fault.Plan.arm plan;
  let session = Client.session (`Unix rsock) in
  Array.iteri
    (fun i inst ->
      match
        Client.call session
          (Protocol.analyze ~id:(Json.Int i) ~mu:inst.Check.Instance.mu
             inst.Check.Instance.tmat)
      with
      | Ok (reply, _) ->
        Alcotest.(check bool) "hedged analyze ok" true (Protocol.reply_ok reply);
        (match Json.member "verdict" reply with
        | Some v ->
          Alcotest.(check string) "first reply byte-exact" (direct_verdict inst)
            (Json.to_string v)
        | None -> Alcotest.fail "analyze reply without verdict")
      | Error e -> Alcotest.fail ("hedged analyze failed: " ^ e))
    instances;
  Fault.Plan.disarm ();
  let stats = Router.stats_fields router in
  (match List.assoc_opt "hedges" stats with
  | Some (Json.Int n) -> Alcotest.(check bool) "hedges fired" true (n >= 1)
  | _ -> Alcotest.fail "router stats without hedges");
  Client.close_session session;
  stop_router r;
  stop_daemon primary;
  stop_daemon follower;
  (* Both sides computed the same request stream: each journal holds
     the identical record for every instance. *)
  let sp = Store.open_ pj and sf = Store.open_ fj in
  Array.iter
    (fun (inst : Check.Instance.t) ->
      let find s =
        match Store.find s ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat with
        | Some e -> Json.to_string (Protocol.json_of_wire (Protocol.wire_of_entry e))
        | None -> Alcotest.fail "hedged instance missing from a journal"
      in
      let on_primary = find sp and on_follower = find sf in
      Alcotest.(check string) "hedged pair byte-identical" on_primary on_follower;
      Alcotest.(check string) "and equal to ground truth" (direct_verdict inst)
        on_primary)
    instances;
  Store.close sp;
  Store.close sf;
  rm pj;
  rm fj

(* ------------------------------- chaos ------------------------------ *)

let fleet_chaos ?(hard_kill = false) ?(fsync_every = 4) transport =
  {
    Chaos.default_config with
    requests = 300;
    classes = [ "cluster" ];
    transport;
    fsync_every;
    topology = Fleet { Chaos.default_fleet with hard_kill };
  }

let test_chaos_fleet_determinism () =
  (* The fleet topology under the same seed twice: the kill lands at
     the same request, so the fault logs match line for line, and the
     audit finds every acked write in a journal that may hold it. *)
  let cfg = fleet_chaos Wire.V1 in
  let r1 = Chaos.run cfg in
  let r2 = Chaos.run cfg in
  Alcotest.(check (list string)) "same seed, same fault log" r1.fault_log r2.fault_log;
  Alcotest.(check string) "same seed, same fingerprint" r1.fingerprint r2.fingerprint;
  Alcotest.(check bool) "run 1 converged" true r1.converged;
  Alcotest.(check bool) "run 2 converged" true r2.converged;
  Alcotest.(check bool) "a kill fired" true (r1.killed_shard >= 0);
  Alcotest.(check int) "killed at the same request" r1.killed_at r2.killed_at;
  Alcotest.(check bool) "follower promoted" true r1.promoted;
  Alcotest.(check int) "no lost acked writes" 0 r1.lost_writes;
  Alcotest.(check int) "no disagreements" 0 r1.disagreements

let test_chaos_fleet_hard_kill () =
  (* SIGKILL-grade kill with every ack synced before its reply: the
     aborted shard drops its queue and buffered replies, yet no acked
     write may be lost. *)
  let r = Chaos.run (fleet_chaos ~hard_kill:true ~fsync_every:1 Wire.V2) in
  Alcotest.(check bool) "a kill fired" true (r.killed_shard >= 0);
  Alcotest.(check bool) "follower promoted" true r.promoted;
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check int) "no lost acked writes" 0 r.lost_writes;
  Alcotest.(check int) "no disagreements" 0 r.disagreements

let test_chaos_report_keys () =
  (* One report for both topologies: every key either former driver
     emitted is present on both, and the fleet-only counters read
     "none" for one daemon. *)
  let keys r =
    match Chaos.json_of_report r with
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "chaos report is not an object"
  in
  let expected =
    [
      "seed"; "requests"; "shards"; "classes"; "rate"; "transport"; "ok"; "errors";
      "retried"; "attempts"; "disagreements"; "acked"; "lost_writes"; "faults";
      "delays"; "site_counts"; "worker_deaths"; "store_quarantined"; "store_healed";
      "store_io_errors"; "killed_shard"; "killed_at"; "promoted"; "promotions";
      "hedges"; "hedge_wins"; "fingerprint"; "converged"; "p50_ms"; "p95_ms";
      "p99_ms"; "recovery_p50_ms"; "recovery_p95_ms"; "recovery_max_ms"; "wall_s";
    ]
  in
  let one = Chaos.run { Chaos.default_config with requests = 60 } in
  let fleet = Chaos.run { (fleet_chaos Wire.V1) with requests = 60 } in
  Alcotest.(check (list string)) "one daemon keys" expected (keys one);
  Alcotest.(check (list string)) "fleet keys" expected (keys fleet);
  Alcotest.(check int) "one daemon: no shards" 0 one.shards;
  Alcotest.(check int) "one daemon: no kill" (-1) one.killed_shard;
  Alcotest.(check int) "one daemon: no kill index" (-1) one.killed_at;
  Alcotest.(check int) "one daemon: no hedges" 0 one.hedges;
  Alcotest.(check int) "fleet: shards" 3 fleet.shards;
  Alcotest.(check bool) "both converged" true (one.converged && fleet.converged)

let suite =
  [
    Alcotest.test_case "ring placement" `Quick test_ring_placement;
    Alcotest.test_case "snapshot round trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot truncated footer" `Quick
      test_snapshot_truncated_footer;
    Alcotest.test_case "snapshot bit-flipped index" `Quick test_snapshot_bit_flip;
    Alcotest.test_case "snapshot journal-tail precedence" `Quick
      test_snapshot_tail_precedence;
    Alcotest.test_case "snapshot open is O(1)" `Quick test_snapshot_open_is_o1;
    Alcotest.test_case "ship op" `Quick test_ship_op;
    Alcotest.test_case "shipper pump" `Quick test_shipper_pump;
    Alcotest.test_case "router differential" `Quick (test_router_differential Wire.V1);
    Alcotest.test_case "router differential binary" `Quick
      (test_router_differential Wire.V2);
    Alcotest.test_case "router differential tcp" `Quick
      (test_router_differential ~tcp:true Wire.V1);
    Alcotest.test_case "router differential binary tcp" `Quick
      (test_router_differential ~tcp:true Wire.V2);
    Alcotest.test_case "router socket guard" `Quick test_router_socket_guard;
    Alcotest.test_case "router failover" `Quick test_router_failover;
    Alcotest.test_case "health breaker" `Quick test_health_breaker;
    Alcotest.test_case "router hedging" `Quick test_router_hedging;
    Alcotest.test_case "chaos fleet determinism" `Quick test_chaos_fleet_determinism;
    Alcotest.test_case "chaos fleet hard kill" `Quick test_chaos_fleet_hard_kill;
    Alcotest.test_case "chaos report keys" `Quick test_chaos_report_keys;
  ]
