type 'a group = { g_key : string; mutable waiters : 'a list (* reverse join order *) }

type 'a t = {
  (* Buckets keyed by the 32-bit content hash; the canonical key
     string disambiguates colliding hashes, exactly as in [Store]. *)
  tbl : (int, 'a group list) Hashtbl.t;
  lock : Mutex.t;
  mutable n_groups : int;
  mutable n_coalesced : int;
}

let create () =
  { tbl = Hashtbl.create 64; lock = Mutex.create (); n_groups = 0; n_coalesced = 0 }

let join t ~hash ~key waiter =
  Mutex.protect t.lock (fun () ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt t.tbl hash) in
      match List.find_opt (fun g -> g.g_key = key) bucket with
      | Some g ->
        g.waiters <- waiter :: g.waiters;
        t.n_coalesced <- t.n_coalesced + 1;
        `Follower
      | None ->
        Hashtbl.replace t.tbl hash ({ g_key = key; waiters = [ waiter ] } :: bucket);
        t.n_groups <- t.n_groups + 1;
        `Leader)

let complete t ~hash ~key =
  Mutex.protect t.lock (fun () ->
      let bucket = Option.value ~default:[] (Hashtbl.find_opt t.tbl hash) in
      match List.partition (fun g -> g.g_key = key) bucket with
      | [], _ -> []
      | g :: _, rest ->
        if rest = [] then Hashtbl.remove t.tbl hash else Hashtbl.replace t.tbl hash rest;
        List.rev g.waiters)

let stats t = Mutex.protect t.lock (fun () -> (t.n_groups, t.n_coalesced))
