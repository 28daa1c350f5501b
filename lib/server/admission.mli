(** Admission control: the bounded request queue between connection
    threads and the batcher workers.

    Producers never block — {!try_push} on a full queue returns
    [false] and the caller sheds the request with an [overloaded]
    reply.  Consumers block in {!pop_batch} until work or {!close};
    a batch is the longest prefix of queued items (up to [max]) that
    is pairwise [compatible] with the first, so compatible analysis
    requests fan out across one {!Engine.Pool.map} call.

    All operations are thread-safe. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue, or return [false] when the queue is full or closed. *)

val pop_batch : 'a t -> max:int -> compatible:('a -> 'a -> bool) -> 'a list option
(** Block until the queue is non-empty, then dequeue the longest
    prefix (at most [max] items) whose members are all [compatible]
    with the first.  [None] once the queue is closed and drained. *)

val close : 'a t -> unit
(** Reject further pushes and wake all blocked consumers; already
    queued items are still delivered. *)

val abort : 'a t -> 'a list
(** SIGKILL-grade {!close}: additionally discard everything still
    queued, returning the dropped items so the caller can release
    bookkeeping (admission slots, inflight registration).  Consumers
    see an empty closed queue. *)

val length : 'a t -> int
