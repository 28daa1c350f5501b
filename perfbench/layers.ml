(* In-process replays of a workload's instance stream through each
   library layer, timed from outside through the layer's public
   functions.  Every traced run performs them, so these numbers exist
   for every workload; sub-microsecond calls are timed in batches of
   [batch] and reported per call. *)

type metric = string * float * string

let batch = 64

(* Per-call cost in ns of [f] over [xs], one sample per batch. *)
let batched_ns xs f =
  let n = Array.length xs in
  let samples = ref [] in
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + batch) in
    let t0 = Sample.now () in
    for j = !i to hi - 1 do
      f xs.(j)
    done;
    samples := (1e9 *. (Sample.now () -. t0) /. float_of_int (hi - !i)) :: !samples;
    i := hi
  done;
  Array.of_list !samples

let per_call_us xs f =
  Array.map
    (fun x ->
      let t0 = Sample.now () in
      f x;
      1e6 *. (Sample.now () -. t0))
    xs

let distinct_by key xs =
  let seen = Hashtbl.create 1024 in
  Array.of_list
    (List.rev
       (Array.fold_left
          (fun acc x ->
            let k = key x in
            if Hashtbl.mem seen k then acc
            else (
              Hashtbl.add seen k ();
              x :: acc))
          [] xs))

let tiers =
  [ "full-rank-square"; "adjugate-form"; "kernel-column-infeasible"; "hermite-n-minus-2";
    "hermite-n-minus-3"; "gcd-sufficient"; "box-oracle"; "lattice-oracle" ]

let cache_tables = [ "hnf"; "lll"; "conflict-lattice"; "analysis-verdict"; "family" ]

(* [Analysis.check] over the stream from cleared caches: CPU per call
   in reference time (Calib), and the share and latency of each
   deciding tier.  [warm] instances run first, untimed, the way the
   daemon's warm-up slice primes its caches. *)
let analysis ?(warm = [||]) (insts : Check.Instance.t array) =
  Engine.Cache.clear ();
  Array.iter (fun (i : Check.Instance.t) -> ignore (Analysis.check ~mu:i.mu i.tmat)) warm;
  let by_tier = Hashtbl.create 8 in
  let speed = Calib.speed () in
  let c0 = Sample.cpu_self () in
  Array.iter
    (fun (i : Check.Instance.t) ->
      let t0 = Sample.now () in
      let v = Analysis.check ~mu:i.mu i.tmat in
      let us = 1e6 *. (Sample.now () -. t0) in
      let name = Analysis.decided_by_name v.Analysis.decided_by in
      Hashtbl.replace by_tier name (us :: Option.value ~default:[] (Hashtbl.find_opt by_tier name)))
    insts;
  let cpu = (Sample.cpu_self () -. c0) *. speed in
  let n = float_of_int (Array.length insts) in
  let tier_metrics =
    List.concat_map
      (fun tier ->
        let us = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt by_tier tier)) in
        (("engine.analysis." ^ tier ^ ".share", Sample.ratio (float_of_int (Array.length us)) n, "ratio")
        :: (if Array.length us = 0 then [] else Sample.summary ("engine.analysis." ^ tier ^ ".us") ~unit_:"us" us)))
      tiers
  in
  let cpu_us_per_op = 1e6 *. Sample.ratio cpu n in
  (cpu_us_per_op, ("engine.analysis.cpu_us_per_op", cpu_us_per_op, "us") :: tier_metrics)

(* Each [Engine.Cache] table's hit share and lookup count, from
   [count name], the value of the [Obs.Metrics] counter [name] over the
   span measured.  A table nobody consulted reads 0 for both. *)
let cache_shares count =
  List.concat_map
    (fun table ->
      let hits = count ("cache." ^ table ^ ".hits") and misses = count ("cache." ^ table ^ ".misses") in
      [ ("engine.cache." ^ table ^ ".hit_share", Sample.ratio hits (hits +. misses), "ratio");
        ("engine.cache." ^ table ^ ".lookups", hits +. misses, "count") ])
    cache_tables

(* [cache_shares] over what [f] does in this process. *)
let cache_shares_of f =
  Obs.Metrics.reset ();
  let r = f () in
  let snap = Obs.Metrics.snapshot () in
  (r, cache_shares (fun name -> float_of_int (Obs.Metrics.counter_value snap name)))

let pool_map_us () =
  let pool = Engine.Pool.create () in
  let tasks = List.init (Engine.Pool.jobs pool) Fun.id in
  let samples =
    Array.init 200 (fun _ ->
        let t0 = Sample.now () in
        ignore (Engine.Pool.map pool (fun x -> x) tasks);
        1e6 *. (Sample.now () -. t0))
  in
  Sample.summary "engine.pool.map_us" ~unit_:"us" samples

(* Every layer the stream touches outside a daemon: wire codec, store,
   ring, family build, Hermite form and the pool. *)
let replay ~expected (insts : Check.Instance.t array) =
  let module W = Server.Wire in
  let frames = Array.mapi (fun id (i : Check.Instance.t) -> W.Bin_analyze { id; deadline_ms = None; mu = i.mu; tmat = i.tmat }) insts in
  let encode = batched_ns frames (fun f -> ignore (W.encode W.V2 f)) in
  let verdict_bytes =
    Array.mapi (fun id (_ : Check.Instance.t) -> W.encode W.V2 (W.Bin_verdict { id; verdict = expected id; store = "hit" })) insts
  in
  let dec = W.decoder W.V2 in
  let decode =
    batched_ns verdict_bytes (fun b ->
        W.feed dec (Bytes.unsafe_of_string b) 0 (String.length b);
        match W.next dec with W.Frame _ -> () | _ -> failwith "decode replay")
  in
  let journal = "replay.journal" in
  Sut.rm_rf journal;
  let store = Server.Store.open_ journal in
  let entries = Array.map (fun (i : Check.Instance.t) -> (i, Analysis.check ~mu:i.mu i.tmat)) insts in
  let distinct = distinct_by (fun ((i : Check.Instance.t), _) -> Server.Store.key_string ~mu:i.mu i.tmat) entries in
  let append =
    per_call_us distinct (fun ((i : Check.Instance.t), v) ->
        Server.Store.add store ~mu:i.mu i.tmat (Server.Store.entry_of_verdict v))
  in
  let find = batched_ns insts (fun (i : Check.Instance.t) -> ignore (Server.Store.find store ~mu:i.mu i.tmat)) in
  Server.Store.close store;
  Sut.rm_rf journal;
  let ring = Cluster.Ring.make 2 in
  let hashes = Array.map (fun (i : Check.Instance.t) -> Server.Store.family_hash i.tmat) insts in
  let lookup = batched_ns hashes (fun h -> ignore (Cluster.Ring.shard_of ring h)) in
  let mats = distinct_by (fun m -> Intmat.to_ints m) (Array.map (fun (i : Check.Instance.t) -> i.tmat) insts) in
  let hnf = per_call_us mats (fun m -> ignore (Hnf.compute m)) in
  Engine.Cache.clear ();
  let build = per_call_us mats (fun m -> ignore (Analysis.family m)) in
  let residual =
    Array.fold_left
      (fun acc (i : Check.Instance.t) ->
        if Analysis.eval_family (Analysis.family i.tmat) ~mu:i.mu = None then acc + 1 else acc)
      0 insts
  in
  Sample.summary "server.wire.encode_ns" ~unit_:"ns" encode
  @ Sample.summary "server.wire.decode_ns" ~unit_:"ns" decode
  @ Sample.summary "server.store.find_ns" ~unit_:"ns" find
  @ Sample.summary "server.store.append_us" ~unit_:"us" append
  @ Sample.summary "cluster.ring.lookup_ns" ~unit_:"ns" lookup
  @ Sample.summary "linalg.hnf.compute_us" ~unit_:"us" hnf
  @ Sample.summary "mapping.family.build_us" ~unit_:"us" build
  @ [ ("mapping.family.residual_share", Sample.ratio (float_of_int residual) (float_of_int (Array.length insts)), "ratio") ]
  @ pool_map_us ()
