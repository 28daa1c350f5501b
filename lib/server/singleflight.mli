(** Singleflight coalescing of identical in-flight queries.

    A table of open {e groups}, keyed by a canonical key string (the
    daemon uses {!Store.family_key_string}, so every instance of a
    mapping matrix coalesces behind one symbolic analysis).  The first
    {!join} for a key creates the group and elects the caller leader:
    it alone dispatches the analysis.  Every further join for the same
    key while the group is open becomes a follower.  {!complete}
    closes the group and returns {e all} waiters in join order — the
    leader fans one verdict (and one store write) out to each of them.

    The table never blocks: callers are the daemon's event loop and
    its completion callbacks, which park waiter records here rather
    than threads.  All operations are thread-safe. *)

type 'a t

val create : unit -> 'a t

val join : 'a t -> key:string -> 'a -> [ `Leader | `Follower ]
(** Register one waiter.  [`Leader] means the caller opened the group
    and must eventually {!complete} it (on success, failure or shed —
    a leaked group would coalesce followers forever). *)

val complete : 'a t -> key:string -> 'a list
(** Close the group and take its waiters, in join order; the empty
    list when no group is open for the key. *)

val stats : 'a t -> int * int
(** [(groups, coalesced)]: groups ever opened, followers ever
    coalesced into an open group. *)
