(** Persistent store of {!Analysis.check} verdicts and family
    verdicts.

    The store is the server's warm cache across restarts: an
    append-only on-disk journal of two record kinds, a [v] verdict for
    one instance [(T, mu)] (keyed by {!key_string}) and an [f] family
    verdict for one mapping matrix [T] (keyed by
    {!family_key_string}).  The two key namespaces are disjoint, and a
    record keyed outside its kind's namespace is refused, so one kind
    never answers the other.  Each line also carries the record's
    32-bit content hash ({!key_hash}, {!family_hash}), the address a
    {!Snapshot} indexes it under.  At {!open_} the journal is replayed
    into one table keyed by the canonical key string and sized from
    the replayed record count; {!find} and {!find_family} share one
    lookup, and {!add}, {!add_family} and {!ingest_line} share one
    insert, which appends a record unless memory holds an equal one.

    Durability and recovery:

    - {e fsync batching}: appends are flushed to the OS on every
      record but [fsync]ed only every [fsync_every] records (and on
      {!flush}/{!close}), so a 10k-request burst does not pay 10k
      disk syncs.  A crash loses at most the un-synced tail.
    - {e crash-truncation recovery}: every record carries a checksum
      over its content.  An incomplete last line — a torn tail from a
      crash mid-append — is truncated back to the last valid record,
      so the next append starts from a clean frame.  The dropped byte
      count is reported in {!stats}.
    - {e quarantine self-healing}: a {e complete} record that fails
      its checksum (bit rot, partial overwrite) is moved into the
      [<path>.quarantine] sidecar and the journal is compacted
      (tmp + rename, fsynced).  Records after the corrupt one are
      independently checksummed and survive.  The corrupt record's
      key, salvaged best-effort, is marked so {!find} forces a miss
      until a fresh verdict re-verifies it via {!add} (the [healed]
      counter); see docs/RESILIENCE.md for the sidecar format.
    - {e directory durability}: file creation, tail truncation and
      compaction are followed by an [fsync] of the parent directory,
      so the metadata change itself survives power loss.

    Replay is last-wins per key: a healed key's fresh record
    supersedes any earlier one in the journal.

    Fault injection: with an armed {!Fault.Plan}, {!add} consults the
    [store.write] site (torn append, rolled back by truncation, then
    raises {!Fault.Injected}) and the [store.fsync] site (skipped
    sync, retried on the next append).  {!flush} and {!close} always
    sync for real.

    All operations are thread-safe. *)

type entry = {
  conflict_free : bool;
  full_rank : bool;
  decided_by : string;  (** {!Analysis.decided_by_name} of the verdict. *)
  witness : int list option;
}

type t

val open_ : ?fsync_every:int -> ?snapshot:string -> string -> t
(** Open (creating if absent) the journal at the given path and replay
    it.  [fsync_every] (default 32) is the record count between
    [fsync]s.  With [snapshot], a {!Snapshot} at that path is opened
    first (two bounded reads, O(1) in its size) and consulted on
    memory misses, so a compacted store warm-starts without replaying
    its history; the replayed journal tail shadows the snapshot
    (last-wins), and a structurally unusable snapshot is a warning
    plus a plain replay, never a failure.  The elapsed open time feeds
    the [server.store.open_ms] histogram and {!stats}.
    @raise Failure when the file exists but is not a store journal
    (wrong header) — the store never clobbers a foreign file.
    @raise Sys_error when the path is not readable/writable. *)

val find : t -> mu:int array -> Intmat.t -> entry option
(** Look up the verdict for [(t, mu)]: memory first, then the
    snapshot, whose hit is promoted into memory.  Bumps the
    [server.store.hits] / [server.store.misses] metrics.  A key whose
    journal record was quarantined misses unconditionally until
    {!add} re-verifies it. *)

val add : t -> mu:int array -> Intmat.t -> entry -> unit
(** Record a verdict.  An entry equal to the one memory holds appends
    nothing (verdicts are deterministic); any other is appended to the
    journal and replaces it.  Either way a quarantine mark on the key
    is cleared (the [healed] counter): the fresh entry re-verified it.
    @raise Fault.Injected when an armed plan fires [store.write]; the
    torn bytes are rolled back and the entry is not recorded — the
    caller may retry or degrade. *)

val find_family : t -> Intmat.t -> Family.t option
(** Look up the family verdict journaled for the mapping matrix alone
    ([f] records, one per distinct [T]), as {!find} does; does not
    touch the hit/miss counters, which are reserved for per-instance
    verdicts. *)

val add_family : t -> Intmat.t -> Family.t -> unit
(** Record a family verdict ([f] record), as {!add} does; counted in
    [f_appended], never in [appended]. *)

val ingest_line : t -> string -> (unit, string) result
(** Apply one raw journal record line shipped from another store (the
    [ship] op of journal replication, docs/CLUSTER.md): the line is
    validated exactly as replay would — frame shape, CRC, key
    namespace, payload — then inserted as {!add} does, so a follower's
    journal is self-contained.  Idempotent: a re-shipped record whose
    entry is already current appends nothing, which makes
    resume-from-watermark safe.  [Error] on a malformed line (nothing
    applied).
    @raise Fault.Injected as {!add} (the record is then not applied —
    the shipper re-ships it). *)

val write_snapshot : t -> string -> int
(** Write everything the store can currently serve — snapshot,
    journal tail and in-memory additions merged last-wins, quarantined
    keys excluded — as a {!Snapshot} at the given path (atomic,
    fsynced).  Returns the record count.  The store keeps running on
    its current journal; see {!compact_to_snapshot} for the rotation
    that also resets the tail. *)

val compact_to_snapshot : t -> snapshot:string -> int
(** {!write_snapshot} to [snapshot], then truncate the journal back to
    its bare header and switch the store to the fresh snapshot, so the
    next {!open_} with this snapshot replays an empty tail in O(1)
    reads.  The snapshot is durable before the journal is reset: a
    crash between the two steps leaves records present in both, which
    replay's last-wins absorbs.  Returns the snapshot record count. *)

val flush : t -> unit
(** Flush buffered appends and [fsync] the journal. *)

val close : t -> unit
(** {!flush}, then close the journal.  The store must not be used
    afterwards. *)

type stats = {
  entries : int;        (** Verdict keys currently held in memory. *)
  hits : int;           (** {!find} successes since {!open_}. *)
  misses : int;         (** {!find} failures since {!open_}. *)
  appended : int;       (** Verdict records written by this process. *)
  loaded : int;         (** Verdict records replayed from disk at {!open_}. *)
  families : int;       (** Family verdicts currently held in memory. *)
  f_appended : int;     (** Family records written by this process. *)
  f_loaded : int;       (** Family records replayed from disk at {!open_}. *)
  dropped_bytes : int;  (** Torn tail truncated away at {!open_}. *)
  quarantined : int;    (** Corrupt records moved to the sidecar at {!open_}. *)
  healed : int;         (** Quarantined keys re-verified by {!add}. *)
  io_errors : int;      (** Injected/encountered write+fsync failures. *)
  snap_entries : int;   (** Records in the attached snapshot (0 when none). *)
  snap_hits : int;      (** Lookups served from the snapshot. *)
  snap_corrupt : int;   (** Snapshot entries that failed validation. *)
  open_ms : float;      (** Wall-clock {!open_} time. *)
  provenance : string;
      (** How the warm state was built: ["created"], ["replay"],
          ["snapshot"] or ["snapshot+tail"]. *)
}

val stats : t -> stats

val key_hash : mu:int array -> Intmat.t -> int
(** The 32-bit content hash a verdict record is journaled and
    snapshot-indexed under: {!Engine.Cache.key_hash} of the mapping
    matrix with [mu] stacked as an extra row, masked to 32 bits.
    Computed only to read the snapshot or to append. *)

val key_string : mu:int array -> Intmat.t -> string
(** The canonical verdict key ([mu=...;t=...;...]) the table is keyed
    by — byte-identical across processes. *)

val family_hash : Intmat.t -> int
(** The 32-bit content hash family records are journaled and
    snapshot-indexed under — {!Engine.Cache.key_hash} of the mapping
    matrix alone — also the key the cluster ring places a query by, so
    every instance of a family lands on one shard. *)

val family_key_string : Intmat.t -> string
(** The canonical family key ([t=...]), disjoint by construction from
    the [mu=...] verdict keys; also the daemon's {!Singleflight} group
    key, so every instance of a family coalesces behind one symbolic
    analysis. *)

val entry_of_verdict : Analysis.verdict -> entry
(** Project the storable fields ([timing] is not persisted: it is
    nondeterministic). *)
