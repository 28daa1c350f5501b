(** Consistent-hash ring: the placement function of the cluster tier
    (docs/CLUSTER.md).

    The router hashes every [analyze] request to a shard through this
    ring, keyed on the {e matrix-only} {!Server.Store.family_hash} —
    so the full content key (matrix plus [mu] row) and every
    [mu]-parametric family record for the same matrix land on the
    same shard, and the daemon's family fastpath stays shard-local.

    Placement is a pure function of [(shards, vnodes)]: no socket
    paths, no boot order, no randomness.  The chaos audit re-derives
    it independently to decide which journal must hold each acked
    write. *)

type t

val make : ?vnodes:int -> int -> t
(** [make ~vnodes n] builds the ring for shard indices [0 .. n-1] with
    [vnodes] points per shard (default 64).
    @raise Invalid_argument when [n < 1] or [vnodes < 1]. *)

val shard_of : t -> int -> int
(** [shard_of t hash] maps a 32-bit hash (only the low 32 bits are
    used) to the owning shard index: the shard of the first ring point
    at or after the hash, wrapping past the top of the circle. *)

val shards : t -> int
val vnodes : t -> int

val spread : t -> samples:int -> int array
(** Ownership histogram over [samples] synthetic keys — the balance
    diagnostic the ring test bounds (no shard may own a grossly
    disproportionate share).
    @raise Invalid_argument when [samples < 1]. *)
