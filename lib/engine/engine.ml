module Budget = struct
  type t = {
    deadline : float option; (* absolute wall-clock seconds *)
    max_oracle_calls : int option;
    used_oracle : int Atomic.t;
    started : float;
    cancelled : bool Atomic.t;
  }

  (* All wall-clock reads go through [Fault.clock_now] so an armed
     chaos plan with the [clock] class can skew deadline arithmetic;
     with no plan armed it is [Unix.gettimeofday]. *)
  let make ?deadline_ms ?max_oracle_calls () =
    let started = Fault.clock_now () in
    {
      deadline = Option.map (fun ms -> started +. (float_of_int ms /. 1000.)) deadline_ms;
      max_oracle_calls;
      used_oracle = Atomic.make 0;
      started;
      cancelled = Atomic.make false;
    }

  let unlimited = make ()
  let charge_oracle t = Atomic.incr t.used_oracle
  let oracle_calls t = Atomic.get t.used_oracle
  let elapsed_ms t = 1000. *. (Fault.clock_now () -. t.started)

  (* The shared [unlimited] budget must stay un-cancellable — it backs
     every caller that passed no budget at all. *)
  let cancel t = if t != unlimited then Atomic.set t.cancelled true
  let cancelled t = Atomic.get t.cancelled

  let pressed t =
    Atomic.get t.cancelled
    || (* [>=] so a zero deadline is pressed from the start. *)
    (match t.deadline with
    | Some d -> Fault.clock_now () >= d
    | None -> false)
    ||
    match t.max_oracle_calls with
    | Some m -> Atomic.get t.used_oracle >= m
    | None -> false
end

module Cache = struct
  module Key = struct
    type t = Intmat.t

    let equal = Intmat.equal

    let hash m =
      let rows = Intmat.rows m and cols = Intmat.cols m in
      let h = ref ((rows * 31) + cols) in
      for i = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          h := (!h * 1000003) lxor Zint.hash (Intmat.get m i j)
        done
      done;
      !h land max_int
  end

  module H = Hashtbl.Make (Key)

  type 'v table = {
    tbl : 'v H.t;
    lock : Mutex.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    hits_metric : Obs.Metrics.counter;
    misses_metric : Obs.Metrics.counter;
  }

  type stats = { hits : int; misses : int; entries : int }

  (* Registry of per-table accessors, so [stats]/[clear] reach tables
     of any value type. *)
  let registry : (unit -> stats) list ref = ref []
  let clearers : (unit -> unit) list ref = ref []
  let registry_lock = Mutex.create ()

  let create_table name =
    let t =
      {
        tbl = H.create 256;
        lock = Mutex.create ();
        hits = Atomic.make 0;
        misses = Atomic.make 0;
        hits_metric = Obs.Metrics.counter ("cache." ^ name ^ ".hits");
        misses_metric = Obs.Metrics.counter ("cache." ^ name ^ ".misses");
      }
    in
    Mutex.lock registry_lock;
    registry :=
      (fun () ->
        Mutex.lock t.lock;
        let entries = H.length t.tbl in
        Mutex.unlock t.lock;
        { hits = Atomic.get t.hits; misses = Atomic.get t.misses; entries })
      :: !registry;
    clearers :=
      (fun () ->
        Mutex.lock t.lock;
        H.reset t.tbl;
        Mutex.unlock t.lock;
        Atomic.set t.hits 0;
        Atomic.set t.misses 0)
      :: !clearers;
    Mutex.unlock registry_lock;
    t

  let memo t key compute =
    Mutex.lock t.lock;
    match H.find_opt t.tbl key with
    | Some v ->
      Mutex.unlock t.lock;
      Atomic.incr t.hits;
      Obs.Metrics.incr t.hits_metric;
      v
    | None ->
      Mutex.unlock t.lock;
      Atomic.incr t.misses;
      Obs.Metrics.incr t.misses_metric;
      (* Compute outside the lock: a racing domain may duplicate the
         work, but never blocks behind it. *)
      let v = compute () in
      Mutex.lock t.lock;
      if not (H.mem t.tbl key) then H.add t.tbl key v;
      Mutex.unlock t.lock;
      v

  let stats () =
    Mutex.lock registry_lock;
    let fns = !registry in
    Mutex.unlock registry_lock;
    List.fold_left
      (fun acc f ->
        let s = f () in
        { hits = acc.hits + s.hits; misses = acc.misses + s.misses; entries = acc.entries + s.entries })
      { hits = 0; misses = 0; entries = 0 }
      fns

  let clear () =
    Mutex.lock registry_lock;
    let fns = !clearers in
    Mutex.unlock registry_lock;
    List.iter (fun f -> f ()) fns

  let key_hash = Key.hash

  let lattice_table : Intvec.t option table = create_table "conflict-lattice"

  let find_conflict_lattice ~mu t =
    if Array.length mu <> Intmat.cols t then
      invalid_arg "Engine.Cache.find_conflict_lattice: arity mismatch";
    (* Key = T with mu stacked as an extra row: rows 0..k-1 recover T,
       the last row recovers mu, so distinct (T, mu) pairs never
       collide. *)
    let key = Intmat.append_row t (Intvec.of_int_array mu) in
    memo lattice_table key (fun () ->
        Obs.Metrics.incr (Obs.Metrics.counter "analysis.lattice_oracle");
        Obs.Trace.with_span "oracle.lattice" (fun () ->
            Conflict.find_conflict_lattice ~mu t))
end

module Pool = struct
  type t = { jobs : int }

  let create ?jobs () =
    let jobs =
      match jobs with
      | Some j -> max 1 j
      | None -> Domain.recommended_domain_count ()
    in
    { jobs }

  let jobs t = t.jobs

  (* Helper domains belong to the process, not to a [t]: callers create
     a fresh pool per query, and per-pool domains would pile up toward
     the runtime's domain limit.  One map at a time owns them through
     [owned]; between maps they park on [wake].  [seats] is how many
     helpers may still join the current [work], [running] how many are
     inside it.  [spawned] is written only by the owner. *)
  let owned = Atomic.make false
  let lock = Mutex.create ()
  let wake = Condition.create ()
  let finished = Condition.create ()
  let work = ref ignore
  let seats = ref 0
  let running = ref 0
  let spawned = ref 0

  let m_inline = Obs.Metrics.counter "pool.inline"
  let g_width = Obs.Metrics.gauge "pool.max_domains"

  (* A helper that returns from [work] while seats remain may take one
     again; it finds every index claimed and returns at once. *)
  let rec helper () =
    Mutex.lock lock;
    while !seats = 0 do
      Condition.wait wake lock
    done;
    decr seats;
    incr running;
    let w = !work in
    Mutex.unlock lock;
    Fun.protect w ~finally:(fun () ->
        Mutex.lock lock;
        decr running;
        if !running = 0 then Condition.signal finished;
        Mutex.unlock lock);
    helper ()

  (* Spawns helpers up to [want]; a failed spawn (e.g. at the domain
     limit) leaves the map to the helpers that exist. *)
  let rec grow want =
    if !spawned < want then
      match Domain.spawn helper with
      | _ ->
        incr spawned;
        grow want
      | exception _ -> ()

  (* Runs [w] on the caller, which owns the helpers, and on up to
     [want] of them, then gives the helpers back. *)
  let fan_out want w =
    grow want;
    let width = min want !spawned in
    if width > 0 then begin
      Obs.Metrics.set_gauge_max g_width (float_of_int (width + 1));
      Mutex.lock lock;
      work := w;
      seats := width;
      Condition.broadcast wake;
      Mutex.unlock lock
    end;
    (* Wait out every seated helper before letting go of the helpers,
       even if [w] raised. *)
    Fun.protect w ~finally:(fun () ->
        Mutex.lock lock;
        seats := 0;
        while !running > 0 do
          Condition.wait finished lock
        done;
        (* Parked helpers must not keep this map's arrays alive. *)
        work := ignore;
        Mutex.unlock lock;
        Atomic.set owned false)

  let map t f xs =
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | xs when t.jobs = 1 -> List.map f xs
    | xs when not (Atomic.compare_and_set owned false true) ->
      Obs.Metrics.incr m_inline;
      List.map f xs
    | xs ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      let out = Array.make n None in
      let next = Atomic.make 0 in
      (* The failure at the lowest index, which is the one [List.map]
         raises.  Indices are claimed in increasing order, so every
         index below a failing one was claimed before it and still
         runs after workers stop claiming. *)
      let failure = Atomic.make None in
      let rec fail i e =
        match Atomic.get failure with
        | Some (j, _) when j < i -> ()
        | cur -> if not (Atomic.compare_and_set failure cur (Some (i, e))) then fail i e
      in
      (* Spans opened by workers re-parent under the span open at the
         [map] call, so a trace shows the fan-out as one subtree. *)
      let parent = Obs.Trace.current () in
      let worker () =
        Obs.Trace.with_parent parent (fun () ->
            let rec loop () =
              if Option.is_none (Atomic.get failure) then begin
                let i = Atomic.fetch_and_add next 1 in
                if i < n then begin
                  (match f arr.(i) with
                  | v -> out.(i) <- Some v
                  | exception e -> fail i e);
                  loop ()
                end
              end
            in
            loop ())
      in
      fan_out (min (t.jobs - 1) (n - 1)) worker;
      (match Atomic.get failure with Some (_, e) -> raise e | None -> ());
      Array.to_list (Array.map (function Some v -> v | None -> assert false) out)
end
