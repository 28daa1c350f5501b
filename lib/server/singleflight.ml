type 'a t = {
  (* Open groups by key, each holding its waiters in reverse join
     order. *)
  tbl : (string, 'a list ref) Hashtbl.t;
  lock : Mutex.t;
  mutable n_groups : int;
  mutable n_coalesced : int;
}

let create () =
  { tbl = Hashtbl.create 64; lock = Mutex.create (); n_groups = 0; n_coalesced = 0 }

let join t ~key waiter =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some waiters ->
        waiters := waiter :: !waiters;
        t.n_coalesced <- t.n_coalesced + 1;
        `Follower
      | None ->
        Hashtbl.replace t.tbl key (ref [ waiter ]);
        t.n_groups <- t.n_groups + 1;
        `Leader)

let complete t ~key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> []
      | Some waiters ->
        Hashtbl.remove t.tbl key;
        List.rev !waiters)

let stats t = Mutex.protect t.lock (fun () -> (t.n_groups, t.n_coalesced))
